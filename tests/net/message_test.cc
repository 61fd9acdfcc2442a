#include "net/message.h"

#include <gtest/gtest.h>

#include "net/protocol.h"

namespace haocl::net {
namespace {

TEST(MessageTest, SerializeDeserializeRoundTrip) {
  Message msg;
  msg.type = MsgType::kLaunchKernel;
  msg.seq = 42;
  msg.session = 7;
  msg.payload = {1, 2, 3, 4, 5};
  auto frame = msg.Serialize();
  auto parsed = Message::Deserialize(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, MsgType::kLaunchKernel);
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_EQ(parsed->session, 7u);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(MessageTest, TailIsPartOfThePayload) {
  const std::vector<std::uint8_t> bulk = {7, 8, 9, 10};
  Message borrowed;
  borrowed.type = MsgType::kWriteBuffer;
  borrowed.seq = 3;
  borrowed.payload = {1, 2};
  borrowed.tail = bulk;
  Message flat = borrowed;
  flat.tail = {};
  flat.payload.insert(flat.payload.end(), bulk.begin(), bulk.end());

  EXPECT_EQ(borrowed.WireSize(), flat.WireSize());
  EXPECT_EQ(borrowed.Serialize(), flat.Serialize());
  auto frame = borrowed.Serialize();
  auto parsed = Message::Deserialize(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->payload, flat.payload);
  EXPECT_TRUE(parsed->tail.empty());
}

TEST(MessageTest, EmptyPayload) {
  Message msg;
  msg.type = MsgType::kQueryBroker;
  auto frame = msg.Serialize();
  EXPECT_EQ(frame.size(), Message::kHeaderSize);
  auto parsed = Message::Deserialize(frame.data(), frame.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(MessageTest, BadMagicRejected) {
  Message msg;
  auto frame = msg.Serialize();
  frame[0] ^= 0xFF;
  EXPECT_FALSE(Message::Deserialize(frame.data(), frame.size()).ok());
  EXPECT_FALSE(Message::ParseHeader(frame.data(), frame.size()).ok());
}

TEST(MessageTest, TruncatedHeaderRejected) {
  Message msg;
  auto frame = msg.Serialize();
  EXPECT_FALSE(Message::ParseHeader(frame.data(), 5).ok());
  EXPECT_FALSE(Message::Deserialize(frame.data(), 5).ok());
}

TEST(MessageTest, SizeMismatchRejected) {
  Message msg;
  msg.payload = {1, 2, 3};
  auto frame = msg.Serialize();
  // Claim the full frame but hand over one byte less.
  EXPECT_FALSE(Message::Deserialize(frame.data(), frame.size() - 1).ok());
}

TEST(MessageTest, AbsurdPayloadLengthRejected) {
  Message msg;
  auto frame = msg.Serialize();
  // Patch the payload-size field (last 8 header bytes) to something huge.
  for (std::size_t i = Message::kHeaderSize - 8; i < Message::kHeaderSize;
       ++i) {
    frame[i] = 0xFF;
  }
  auto header = Message::ParseHeader(frame.data(), frame.size());
  EXPECT_FALSE(header.ok());
  EXPECT_EQ(header.code(), ErrorCode::kProtocolError);
}

// ----- Protocol payload codecs ---------------------------------------------

TEST(ProtocolTest, HelloRoundTrip) {
  HelloRequest req;
  req.host_name = "host-A";
  auto decoded = Decode<HelloRequest>(Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->host_name, "host-A");

  HelloReply reply;
  reply.node_name = "gpu3";
  reply.device_type = NodeType::kGpu;
  reply.device_model = "Tesla P4";
  reply.compute_gflops = 5500;
  auto r = Decode<HelloReply>(Encode(reply));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node_name, "gpu3");
  EXPECT_EQ(r->device_type, NodeType::kGpu);
  EXPECT_EQ(r->device_model, "Tesla P4");
  EXPECT_DOUBLE_EQ(r->compute_gflops, 5500);
  EXPECT_EQ(r->protocol_version, kProtocolVersion);
}

TEST(ProtocolTest, BufferRequestsRoundTrip) {
  CreateBufferRequest create{11, 4096};
  auto c = Decode<CreateBufferRequest>(Encode(create));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->buffer_id, 11u);
  EXPECT_EQ(c->size, 4096u);

  // The data bytes travel as the frame's tail, after the encoded fields;
  // the decoded data is a view into the received payload.
  const std::vector<std::uint8_t> bytes = {9, 8, 7};
  WriteBufferRequest write;
  write.buffer_id = 11;
  write.offset = 128;
  write.data = bytes;
  std::vector<std::uint8_t> payload = Encode(write);
  payload.insert(payload.end(), bytes.begin(), bytes.end());
  auto w = Decode<WriteBufferRequest>(payload);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->offset, 128u);
  EXPECT_EQ(std::vector<std::uint8_t>(w->data.begin(), w->data.end()), bytes);
  EXPECT_EQ(w->data.data(), payload.data() + payload.size() - bytes.size());

  ReadBufferRequest read{11, 0, 256};
  auto r = Decode<ReadBufferRequest>(Encode(read));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size, 256u);
}

TEST(ProtocolTest, WriteBufferLengthMustMatchRemainingBytes) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4};
  WriteBufferRequest write;
  write.buffer_id = 3;
  write.data = bytes;
  const std::vector<std::uint8_t> fields = Encode(write);

  std::vector<std::uint8_t> exact = fields;
  exact.insert(exact.end(), bytes.begin(), bytes.end());
  EXPECT_TRUE(Decode<WriteBufferRequest>(exact).ok());

  // Prefix claims more bytes than follow it.
  std::vector<std::uint8_t> short_frame(exact.begin(), exact.end() - 1);
  EXPECT_EQ(Decode<WriteBufferRequest>(short_frame).code(),
            ErrorCode::kProtocolError);
  // Prefix claims fewer bytes than follow it.
  std::vector<std::uint8_t> long_frame = exact;
  long_frame.push_back(5);
  EXPECT_EQ(Decode<WriteBufferRequest>(long_frame).code(),
            ErrorCode::kProtocolError);
  // A length near 2^64 must not wrap the bounds check (the u64 prefix
  // follows buffer_id, offset and after_seq).
  std::vector<std::uint8_t> hostile = exact;
  for (std::size_t i = 24; i < 32; ++i) hostile[i] = 0xFF;
  EXPECT_EQ(Decode<WriteBufferRequest>(hostile).code(),
            ErrorCode::kProtocolError);
}

TEST(ProtocolTest, LaunchKernelRoundTrip) {
  LaunchKernelRequest req;
  req.program_id = 3;
  req.kernel_name = "matmul_partition";
  WireKernelArg buf;
  buf.kind = WireKernelArg::Kind::kBuffer;
  buf.buffer_id = 17;
  buf.written_begin = 128;
  buf.written_end = 640;
  WireKernelArg scalar;
  scalar.kind = WireKernelArg::Kind::kScalar;
  scalar.scalar_bytes = {0, 1, 0, 0};
  WireKernelArg local;
  local.kind = WireKernelArg::Kind::kLocalSize;
  local.local_size = 1024;
  req.args = {buf, scalar, local};
  req.work_dim = 2;
  req.global[0] = 256;
  req.global[1] = 128;
  req.local[0] = 16;
  req.local[1] = 8;
  req.local_specified = true;

  auto decoded = Decode<LaunchKernelRequest>(Encode(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kernel_name, "matmul_partition");
  ASSERT_EQ(decoded->args.size(), 3u);
  EXPECT_EQ(decoded->args[0].buffer_id, 17u);
  EXPECT_EQ(decoded->args[0].written_begin, 128u);
  EXPECT_EQ(decoded->args[0].written_end, 640u);
  EXPECT_EQ(decoded->args[1].scalar_bytes.size(), 4u);
  EXPECT_EQ(decoded->args[2].local_size, 1024u);
  EXPECT_EQ(decoded->global[1], 128u);
  EXPECT_TRUE(decoded->local_specified);
  EXPECT_FALSE(decoded->has_cost_hint);  // None set: none decoded.

  // The analytic cost hint (shard-scaled work estimate) rides along.
  req.has_cost_hint = true;
  req.hint_flops = 2.5e9;
  req.hint_bytes = 1e6;
  req.hint_work_items = 256;
  req.hint_irregular = true;
  auto hinted = Decode<LaunchKernelRequest>(Encode(req));
  ASSERT_TRUE(hinted.ok()) << hinted.status().ToString();
  ASSERT_TRUE(hinted->has_cost_hint);
  EXPECT_DOUBLE_EQ(hinted->hint_flops, 2.5e9);
  EXPECT_DOUBLE_EQ(hinted->hint_bytes, 1e6);
  EXPECT_EQ(hinted->hint_work_items, 256u);
  EXPECT_TRUE(hinted->hint_irregular);
}

TEST(ProtocolTest, MemoryNoticeRoundTrip) {
  MemoryNoticeRequest notice;
  notice.buffer_id = 9;
  notice.reserve = true;
  notice.regions = {{0, 4096}, {8192, 1024}};
  auto decoded = Decode<MemoryNoticeRequest>(Encode(notice));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->buffer_id, 9u);
  EXPECT_TRUE(decoded->reserve);
  ASSERT_EQ(decoded->regions.size(), 2u);
  EXPECT_EQ(decoded->regions[1].offset, 8192u);
  EXPECT_EQ(decoded->regions[1].size, 1024u);

  notice.reserve = false;
  notice.regions.clear();
  auto evict = Decode<MemoryNoticeRequest>(Encode(notice));
  ASSERT_TRUE(evict.ok());
  EXPECT_FALSE(evict->reserve);
  EXPECT_TRUE(evict->regions.empty());

  EXPECT_FALSE(Decode<MemoryNoticeRequest>({1, 2, 3}).ok());
}

TEST(ProtocolTest, HelloAndLoadCarryMemoryCapacity) {
  HelloReply hello;
  hello.node_name = "gpu0";
  hello.device_type = NodeType::kGpu;
  hello.mem_capacity_bytes = 8ull << 30;
  auto decoded = Decode<HelloReply>(Encode(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->mem_capacity_bytes, 8ull << 30);

  BrokerStatsReply report;
  report.resident_bytes = 12345;
  report.mem_capacity_bytes = 65536;
  auto report_decoded = Decode<BrokerStatsReply>(Encode(report));
  ASSERT_TRUE(report_decoded.ok());
  EXPECT_EQ(report_decoded->resident_bytes, 12345u);
  EXPECT_EQ(report_decoded->mem_capacity_bytes, 65536u);
}

TEST(ProtocolTest, TruncatedPayloadsRejected) {
  LaunchKernelRequest req;
  req.kernel_name = "k";
  WireKernelArg arg;
  arg.kind = WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  req.args = {arg};
  auto bytes = Encode(req);
  for (std::size_t cut : {std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    EXPECT_FALSE(Decode<LaunchKernelRequest>(truncated).ok())
        << "cut=" << cut;
  }
}

TEST(ProtocolTest, HostileElementCountsRejected) {
  // A u32 count of 2^32-1 with nothing behind it: refused before any
  // element is allocated, wherever the vector sits in the message.
  auto with_count_at = [](std::vector<std::uint8_t> bytes, std::size_t at) {
    for (std::size_t i = at; i < at + 4; ++i) bytes[i] = 0xFF;
    return bytes;
  };
  const std::vector<std::uint8_t> broker = Encode(BrokerStatsReply{});
  // Tenants count after a u32, two u64 and two f64 fields; rates count
  // last.
  EXPECT_EQ(Decode<BrokerStatsReply>(with_count_at(broker, 36)).code(),
            ErrorCode::kProtocolError);
  EXPECT_EQ(
      Decode<BrokerStatsReply>(with_count_at(broker, broker.size() - 4))
          .code(),
      ErrorCode::kProtocolError);
}

TEST(ProtocolTest, EnumsAboveTheirMaxRejected) {
  HelloReply hello;
  std::vector<std::uint8_t> bytes = Encode(hello);
  bytes[4] = 3;  // device_type, after the empty node name.
  EXPECT_EQ(Decode<HelloReply>(bytes).code(), ErrorCode::kProtocolError);

  LaunchKernelRequest launch;
  launch.args.resize(1);
  bytes = Encode(launch);
  bytes[16] = 3;  // args[0].kind, after program id, name and arg count.
  EXPECT_EQ(Decode<LaunchKernelRequest>(bytes).code(),
            ErrorCode::kProtocolError);
}

TEST(ProtocolTest, StatusReplyConveysErrors) {
  StatusReply reply = StatusReply::FromStatus(
      Status(ErrorCode::kInvalidMemObject, "no buffer 9"));
  auto decoded = Decode<StatusReply>(Encode(reply));
  ASSERT_TRUE(decoded.ok());
  Status status = decoded->ToStatus();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidMemObject);
  EXPECT_EQ(status.message(), "no buffer 9");
}

}  // namespace
}  // namespace haocl::net
