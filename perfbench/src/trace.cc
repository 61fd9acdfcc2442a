#include "trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "net/message.h"

namespace perfbench {
namespace {

std::uint64_t ThreadTag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kApi: return "api";
    case SpanKind::kRpc: return "rpc";
    case SpanKind::kService: return "service";
    case SpanKind::kSend: return "send";
    case SpanKind::kLaunch: return "driver.launch";
    case SpanKind::kBuild: return "driver.build";
  }
  return "?";
}

class TracingDriver final : public haocl::driver::DeviceDriver {
 public:
  TracingDriver(std::unique_ptr<haocl::driver::DeviceDriver> inner,
                TraceRecorder* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] const haocl::sim::DeviceSpec& spec() const override {
    return inner_->spec();
  }

  haocl::Expected<std::shared_ptr<const haocl::oclc::Module>> Build(
      const std::string& source, std::string* build_log) override {
    Span span;
    span.kind = SpanKind::kBuild;
    span.thread = ThreadTag();
    span.begin_ns = NowNs();
    auto module = inner_->Build(source, build_log);
    span.end_ns = NowNs();
    trace_->Record(span);
    return module;
  }

  haocl::Status Launch(const haocl::oclc::Module& module,
                       const std::string& kernel_name,
                       const std::vector<haocl::oclc::ArgBinding>& args,
                       const haocl::oclc::NDRange& range,
                       haocl::driver::LaunchProfile* profile,
                       const haocl::sim::KernelCost* cost_hint) override {
    haocl::driver::LaunchProfile local;
    haocl::driver::LaunchProfile* out = profile != nullptr ? profile : &local;
    Span span;
    span.kind = SpanKind::kLaunch;
    span.thread = ThreadTag();
    span.begin_ns = NowNs();
    haocl::Status status =
        inner_->Launch(module, kernel_name, args, range, out, cost_hint);
    span.end_ns = NowNs();
    trace_->Record(span);
    if (status.ok()) trace_->AddLaunchProfile(*out);
    return status;
  }

 private:
  std::unique_ptr<haocl::driver::DeviceDriver> inner_;
  TraceRecorder* trace_;
};

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void TraceRecorder::AddLaunchProfile(
    const haocl::driver::LaunchProfile& profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  vm_.native_launches += profile.used_native_binary ? 1 : 0;
  vm_.instructions += profile.vm_instructions;
  vm_.batch_steps += profile.vm_batch_steps;
  vm_.fused_steps += profile.vm_fused_steps;
  vm_.simd_steps += profile.vm_simd_steps;
  vm_.bailouts += profile.vm_bailouts;
}

std::vector<Span> TraceRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

VmCounters TraceRecorder::vm() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return vm_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  vm_ = {};
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* detail =
        s.kind == SpanKind::kApi
            ? s.name
            : haocl::net::MsgTypeName(static_cast<haocl::net::MsgType>(s.msg_type));
    if (s.kind == SpanKind::kLaunch || s.kind == SpanKind::kBuild) detail = "";
    std::fprintf(file,
                 "{\"name\":\"%s%s%s%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%llu,"
                 "\"bytes\":%llu}}%s\n",
                 KindName(s.kind), *detail != '\0' ? ":" : "", detail,
                 s.peer_link ? " (peer)" : "",
                 static_cast<unsigned long long>(s.thread % 1000000),
                 static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                 static_cast<unsigned long long>(s.seq),
                 static_cast<unsigned long long>(s.bytes),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

TracingConnection::TracingConnection(haocl::net::ConnectionPtr inner,
                                     TraceRecorder* trace, End end,
                                     bool peer_link)
    : inner_(std::move(inner)), trace_(trace), end_(end), peer_link_(peer_link) {}

TracingConnection::~TracingConnection() { inner_->Close(); }

haocl::Status TracingConnection::Send(const haocl::net::Message& message) {
  const std::int64_t begin = NowNs();
  const std::uint64_t thread = ThreadTag();
  const auto type = static_cast<std::uint16_t>(message.type);
  if (message.seq != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (end_ == End::kClient) {
      // Opened before the bytes leave: the reply may beat Send's return.
      open_[message.seq] = Open{type, begin, thread};
    } else if (auto it = open_.find(message.seq); it != open_.end()) {
      Span service;
      service.kind = SpanKind::kService;
      service.peer_link = peer_link_;
      service.msg_type = it->second.msg_type;
      service.seq = message.seq;
      service.begin_ns = it->second.begin_ns;
      service.end_ns = begin;
      service.thread = thread;  // The thread that served the request.
      open_.erase(it);
      trace_->Record(service);
    }
  }
  haocl::Status status = inner_->Send(message);
  Span send;
  send.kind = SpanKind::kSend;
  send.peer_link = peer_link_;
  send.msg_type = type;
  send.seq = message.seq;
  send.begin_ns = begin;
  send.end_ns = NowNs();
  send.thread = thread;
  send.bytes = message.WireSize();
  trace_->Record(send);
  return status;
}

void TracingConnection::Start(haocl::net::MessageHandler handler) {
  inner_->Start([this, handler = std::move(handler)](haocl::net::Message m) {
    const std::int64_t now = NowNs();
    if (m.seq != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (end_ == End::kServer) {
        open_[m.seq] = Open{static_cast<std::uint16_t>(m.type), now, 0};
      } else if (auto it = open_.find(m.seq); it != open_.end()) {
        Span rpc;
        rpc.kind = SpanKind::kRpc;
        rpc.peer_link = peer_link_;
        rpc.msg_type = it->second.msg_type;
        rpc.seq = m.seq;
        rpc.begin_ns = it->second.begin_ns;
        rpc.end_ns = now;
        rpc.thread = it->second.thread;  // The thread that sent the request.
        open_.erase(it);
        trace_->Record(rpc);
      }
    }
    handler(std::move(m));
  });
}

haocl::net::ConnectionPtr MaybeTrace(haocl::net::ConnectionPtr connection,
                                     TraceRecorder* trace,
                                     TracingConnection::End end,
                                     bool peer_link) {
  if (trace == nullptr) return connection;
  return std::make_unique<TracingConnection>(std::move(connection), trace, end,
                                             peer_link);
}

std::unique_ptr<haocl::driver::DeviceDriver> TraceDriver(
    std::unique_ptr<haocl::driver::DeviceDriver> inner, TraceRecorder* trace) {
  if (trace == nullptr) return inner;
  return std::make_unique<TracingDriver>(std::move(inner), trace);
}

LayerSplit SplitIteration(Interval window,
                          const std::vector<const Span*>& spans) {
  std::vector<Interval> driver;
  std::vector<Interval> rpc;
  std::unordered_map<std::uint64_t, std::vector<Interval>> peer_waits;
  for (const Span* s : spans) {
    if (s->kind == SpanKind::kLaunch || s->kind == SpanKind::kBuild) {
      driver.emplace_back(s->begin_ns, s->end_ns);
    } else if (s->kind == SpanKind::kRpc) {
      rpc.emplace_back(s->begin_ns, s->end_ns);
      if (s->peer_link) peer_waits[s->thread].emplace_back(s->begin_ns, s->end_ns);
    }
  }
  // A node serving a request is "node" time except while its serving
  // thread waits on a peer RPC of its own (that wait is wire time, or the
  // peer's service).
  std::vector<Interval> node;
  for (const Span* s : spans) {
    if (s->kind != SpanKind::kService) continue;
    const IntervalSet served({{s->begin_ns, s->end_ns}});
    auto waits = peer_waits.find(s->thread);
    const IntervalSet own = waits == peer_waits.end()
                                ? served
                                : served.Subtract(IntervalSet(waits->second));
    node.insert(node.end(), own.intervals().begin(), own.intervals().end());
  }
  const IntervalSet w({window});
  const IntervalSet drv = IntervalSet(std::move(driver)).Intersect(w);
  const IntervalSet nod = IntervalSet(std::move(node)).Intersect(w);
  const IntervalSet net = IntervalSet(std::move(rpc)).Intersect(w);
  LayerSplit split;
  split.driver_ns = drv.Length();
  split.node_ns = nod.Subtract(drv).Length();
  split.net_ns = net.Subtract(nod).Subtract(drv).Length();
  split.host_ns = w.Length() - net.Union(nod).Union(drv).Length();
  return split;
}

}  // namespace perfbench
