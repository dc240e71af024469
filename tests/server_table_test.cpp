// Unit tests for ServerTable (src/core/server_table.hpp): where the table
// switches from sorted entries to direct indexing, the iteration order
// both modes share, and the dense record's round trip.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/state_io.hpp"
#include "core/server_table.hpp"

namespace repl {
namespace {

struct Entry {
  double time = -1.0;
  std::int32_t count = 0;

  void save(StateWriter& out) const {
    out.f64(time);
    out.i32(count);
  }
  void load(StateReader& in) {
    time = in.f64();
    count = in.i32();
  }
};

std::vector<int> servers_of(const ServerTable<Entry>& table) {
  std::vector<int> servers;
  table.for_each([&servers](int s, const Entry&) { servers.push_back(s); });
  return servers;
}

/// Sorted while doubling stays below half the fleet: at 10 servers the
/// 5th touched server switches to direct indexing, at 100 the 33rd.
/// Untouched servers have no entry before the switch and read as T{}
/// after it.
TEST(ServerTable, SwitchesToDirectIndexingOnceDoublingReachesHalfTheFleet) {
  for (const int fleet : {10, 100}) {
    SCOPED_TRACE("fleet=" + std::to_string(fleet));
    const int sorted_limit = fleet == 10 ? 4 : 32;
    ServerTable<Entry> table;
    std::vector<int> touched;
    for (int k = 0; k < sorted_limit; ++k) {
      const int server = (k * 7 + 3) % fleet;  // out of order, distinct
      table.touch(server, fleet).count = k + 1;
      touched.push_back(server);
    }
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(servers_of(table), touched);
    int untouched = 0;
    while (std::binary_search(touched.begin(), touched.end(), untouched)) {
      ++untouched;
    }
    EXPECT_EQ(table.find(untouched), nullptr);
    EXPECT_EQ(table.get(untouched).time, -1.0);

    table.touch(untouched, fleet).count = -7;
    EXPECT_EQ(servers_of(table).size(), static_cast<std::size_t>(fleet));
    EXPECT_EQ(table.get(untouched).count, -7);
    for (int k = 0; k < sorted_limit; ++k) {
      EXPECT_EQ(table.get((k * 7 + 3) % fleet).count, k + 1);
    }
  }
}

/// The record lists every server of the fleet; loading it keeps only the
/// entries that differ from T{}, and saving again gives the same bytes.
TEST(ServerTable, DenseRecordRoundTripsAndDropsDefaultEntries) {
  const int fleet = 100;
  ServerTable<Entry> table;
  table.touch(60, fleet) = Entry{2.5, 3};
  table.touch(4, fleet) = Entry{};  // touched, but back at the default
  table.touch(17, fleet).time = 0.0;
  StateWriter out;
  table.save(out, fleet);
  const std::vector<unsigned char> bytes = out.release();
  ASSERT_EQ(bytes.size(), static_cast<std::size_t>(fleet) * 12);

  ServerTable<Entry> loaded;
  loaded.touch(4, fleet).count = 9;  // replaced by the record
  StateReader in(bytes.data(), bytes.size(), "table");
  loaded.load(in, fleet);
  in.expect_end();
  EXPECT_EQ(servers_of(loaded), (std::vector<int>{17, 60}));
  EXPECT_EQ(loaded.get(60).count, 3);
  EXPECT_EQ(loaded.get(17).time, 0.0);

  StateWriter again;
  loaded.save(again, fleet);
  EXPECT_EQ(again.buffer(), bytes);
}

}  // namespace
}  // namespace repl
