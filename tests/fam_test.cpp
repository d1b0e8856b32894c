// OpenFAM-substitute tests: allocation, whole-region data ops priced by
// length, capacity accounting, cost model, and server failure semantics.

#include <gtest/gtest.h>

#include "fam/fam.h"

namespace ids::fam {
namespace {

FamOptions two_servers() {
  FamOptions o;
  o.server_nodes = {0, 1};
  o.server_capacity_bytes = 1024;
  return o;
}

TEST(Fam, AllocateLookupRoundTrip) {
  FamService fam(two_servers());
  auto d = fam.allocate("region/a", 128);
  ASSERT_TRUE(d.ok());
  auto found = fam.lookup("region/a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().region, d.value().region);
  EXPECT_EQ(found.value().size, 128u);
}

TEST(Fam, DuplicateNameRejected) {
  FamService fam(two_servers());
  ASSERT_TRUE(fam.allocate("x", 16).ok());
  auto again = fam.allocate("x", 16);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(Fam, PutAndGetChargeTheRegionLength) {
  FamService fam(two_servers());
  auto d = fam.allocate("blob", 64, 1);
  ASSERT_TRUE(d.ok());
  sim::VirtualClock put_clock;
  sim::VirtualClock get_clock;
  ASSERT_TRUE(fam.put(put_clock, 0, d.value()).ok());
  ASSERT_TRUE(fam.get(get_clock, 0, d.value()).ok());
  EXPECT_EQ(put_clock.now(), fam.transfer_cost(0, 1, 64));
  EXPECT_EQ(get_clock.now(), fam.transfer_cost(0, 1, 64));
}

TEST(Fam, CapacityEnforcedAndLeastLoadedPlacement) {
  FamService fam(two_servers());
  auto a = fam.allocate("a", 800);  // server 0 or 1
  ASSERT_TRUE(a.ok());
  auto b = fam.allocate("b", 800);  // must land on the other
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().server, b.value().server);
  auto c = fam.allocate("c", 800);  // no room anywhere
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

TEST(Fam, DeallocateFreesCapacity) {
  FamService fam(two_servers());
  auto d = fam.allocate("a", 1000, 0);
  ASSERT_TRUE(d.ok());
  // Server 0 is full: a second preferred allocation falls back to 1.
  auto full = fam.allocate("b", 1000, 0);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().server, 1);
  ASSERT_TRUE(fam.deallocate("a").ok());
  auto freed = fam.allocate("c", 1000, 0);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(freed.value().server, 0);
  EXPECT_EQ(fam.deallocate("a").code(), StatusCode::kNotFound);
}

TEST(Fam, LocalAccessCheaperThanRemote) {
  FamService fam(two_servers());
  auto d = fam.allocate("blob", 512, 1);  // on server 1 (node 1)
  ASSERT_TRUE(d.ok());
  sim::VirtualClock local;
  sim::VirtualClock remote;
  ASSERT_TRUE(fam.put(local, 1, d.value()).ok());
  ASSERT_TRUE(fam.put(remote, 0, d.value()).ok());
  EXPECT_LT(local.now(), remote.now());
}

TEST(Fam, ServerFailureLosesDataButFreesNames) {
  FamService fam(two_servers());
  auto d = fam.allocate("victim", 64, 0);
  ASSERT_TRUE(d.ok());
  fam.fail_server(0);

  sim::VirtualClock clock;
  EXPECT_EQ(fam.get(clock, 0, d.value()).code(), StatusCode::kUnavailable);
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_FALSE(fam.lookup("victim").ok());  // name records dropped

  fam.recover_server(0);
  EXPECT_EQ(fam.get(clock, 0, d.value()).code(), StatusCode::kNotFound);
  // The name can be allocated again after recovery, and the server came
  // back empty: a full-capacity region fits.
  auto again = fam.allocate("victim", 1024, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().server, 0);
}

TEST(Fam, FailedServerNotUsedForPlacement) {
  FamService fam(two_servers());
  fam.fail_server(0);
  auto d = fam.allocate("x", 64);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().server, 1);
}

TEST(Fam, TransferCostScalesWithSize) {
  FamService fam(two_servers());
  EXPECT_LT(fam.transfer_cost(0, 1, 1024), fam.transfer_cost(0, 1, 1 << 20));
  EXPECT_LT(fam.transfer_cost(0, 0, 1 << 20), fam.transfer_cost(0, 1, 1 << 20));
}

}  // namespace
}  // namespace ids::fam
