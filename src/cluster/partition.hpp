// Deterministic object-space partitioning for distributed serving.
//
// A cluster splits the object id space across N worker processes the way
// OMNeT++'s parsim layer splits a simulation into partitions: every
// object belongs to exactly one stable partition id, computed as a pure
// function of (object_id, num_partitions) — never of arrival order,
// worker liveness, or load. Stability is what makes the whole subsystem
// work: the coordinator can re-derive a dead worker's slice of the event
// stream from the source log alone, and a per-partition checkpoint can
// name the slice it froze.
//
// The mix is salted differently from the engine's internal shard mix
// (engine.cpp's SplitMix64(object_id) % num_shards), so partition and
// shard boundaries decorrelate: a partition's objects still spread
// evenly over its worker's shards at any geometry.
//
// kPartitionFunctionVersion names this exact mapping. It is recorded in
// the slice block of every worker snapshot (checkpoint/snapshot.hpp,
// StreamingEngine::bind_slice) and exchanged in the cluster control
// handshake; any future change to the mapping must bump it, so a
// snapshot cut under one mapping can never be silently resumed under
// another (the events it claims to have ingested would belong to a
// different slice).
#pragma once

#include <cstdint>

namespace repl {

/// Version of the object → partition mapping below. Bump on ANY change
/// to partition_of's output for any (id, num_partitions) pair.
inline constexpr std::uint32_t kPartitionFunctionVersion = 1;

/// Salt decorrelating the partition mix from the engine's shard mix.
inline constexpr std::uint64_t kPartitionSalt = 0x70617274736c7431ULL;

/// Stable partition of `object_id` among `num_partitions` workers.
/// Pure, version-pinned (kPartitionFunctionVersion); requires
/// num_partitions >= 1. With one partition every object maps to 0, so a
/// single-worker cluster degenerates to exactly the single-process
/// stream.
std::uint32_t partition_of(std::uint64_t object_id,
                           std::uint32_t num_partitions);

/// Fails loudly (std::invalid_argument) when `version` is not the
/// mapping this build implements — the wrong-slice defense of the
/// control-plane handshake.
void require_partition_function_version(std::uint32_t version);

}  // namespace repl
