#include "sim/virtual_time.h"

#include <gtest/gtest.h>

namespace haocl::sim {
namespace {

TEST(SerialResourceTest, SerializesOverlappingRequests) {
  SerialResource r;
  EXPECT_DOUBLE_EQ(r.Acquire(0.0, 1.0), 1.0);
  // Second request arrives at t=0.5 but the resource is busy until 1.0.
  EXPECT_DOUBLE_EQ(r.Acquire(0.5, 1.0), 2.0);
  // A request after the busy period starts immediately.
  EXPECT_DOUBLE_EQ(r.Acquire(5.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 3.0);
}

}  // namespace
}  // namespace haocl::sim
