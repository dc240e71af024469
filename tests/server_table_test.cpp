// Unit tests for ServerTable (src/core/server_table.hpp): where the table
// switches from sorted entries to direct indexing, the iteration order
// both modes share, the sparse record's round trip and the dense
// (snapshot version 4) record's conversion to it.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
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

/// A version-4 record lists every server of the fleet; loading it keeps
/// only the entries that differ from T{}, and saving writes the sparse
/// record of just those, which loads back to the same table.
TEST(ServerTable, DenseRecordRoundTripsAndDropsDefaultEntries) {
  const int fleet = 100;
  StateWriter dense;
  for (int s = 0; s < fleet; ++s) {
    Entry entry;
    if (s == 60) entry = Entry{2.5, 3};
    if (s == 17) entry.time = 0.0;
    entry.save(dense);
  }
  const std::vector<unsigned char> bytes = dense.release();
  ASSERT_EQ(bytes.size(), static_cast<std::size_t>(fleet) * 12);

  ServerTable<Entry> loaded;
  loaded.touch(4, fleet).count = 9;  // replaced by the record
  StateReader in(bytes.data(), bytes.size(), "table", /*format=*/4);
  loaded.load(in, fleet);
  in.expect_end();
  EXPECT_EQ(servers_of(loaded), (std::vector<int>{17, 60}));
  EXPECT_EQ(loaded.get(60).count, 3);
  EXPECT_EQ(loaded.get(17).time, 0.0);

  StateWriter sparse;
  loaded.save(sparse);
  EXPECT_EQ(sparse.size(), 1u + 2 * (1 + 12));  // count, 2 × (id, entry)
  ServerTable<Entry> again;
  StateReader sparse_in(sparse.buffer().data(), sparse.size(), "sparse");
  again.load(sparse_in, fleet);
  sparse_in.expect_end();
  EXPECT_EQ(servers_of(again), (std::vector<int>{17, 60}));
  EXPECT_EQ(again.get(60).count, 3);
}

/// The sparse record lists touched entries that differ from T{}, in
/// ascending server id, and loading rejects anything save() would not
/// write: a count past the fleet or the record, ids out of range, out of
/// order or repeated, a default entry, a varint in a longer spelling.
TEST(ServerTable, SparseRecordIsCanonical) {
  const int fleet = 10;
  ServerTable<Entry> table;
  table.touch(7, fleet) = Entry{1.5, 2};
  table.touch(4, fleet) = Entry{};  // touched, but back at the default
  table.touch(2, fleet).count = 5;
  StateWriter out;
  table.save(out);
  const std::vector<unsigned char> bytes = out.release();
  ASSERT_EQ(bytes.size(), 1u + 2 * (1 + 12));
  ASSERT_EQ(bytes[0], 2);  // count
  ASSERT_EQ(bytes[1], 2);  // first id
  ASSERT_EQ(bytes[14], 7);  // second id

  const auto load = [fleet](const std::vector<unsigned char>& record) {
    ServerTable<Entry> loaded;
    StateReader in(record.data(), record.size(), "object 3");
    loaded.load(in, fleet);
    in.expect_end();
    return servers_of(loaded);
  };
  EXPECT_EQ(load(bytes), (std::vector<int>{2, 7}));

  const auto rejects = [&](std::vector<unsigned char> record,
                           const std::string& why) {
    SCOPED_TRACE(why);
    try {
      load(record);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("object 3"),
                std::string::npos)
          << error.what();
    }
  };
  std::vector<unsigned char> bad = bytes;
  bad[0] = 11;
  rejects(bad, "count past the fleet");
  bad = bytes;
  bad[0] = 3;
  rejects(bad, "count past the record");
  bad = bytes;
  bad[14] = 10;
  rejects(bad, "id outside the fleet");
  bad = bytes;
  bad[14] = 1;
  rejects(bad, "descending ids");
  bad = bytes;
  bad[14] = 2;
  rejects(bad, "repeated id");
  bad = bytes;
  StateWriter untouched;
  Entry{}.save(untouched);
  std::copy(untouched.buffer().begin(), untouched.buffer().end(),
            bad.begin() + 15);
  rejects(bad, "default entry");
  bad = bytes;
  bad[1] = 0x82;  // id 2 as two bytes: 0x82 0x00
  bad.insert(bad.begin() + 2, 0x00);
  rejects(bad, "longer varint");
}

}  // namespace
}  // namespace repl
