//===- api/Serialize.cpp --------------------------------------------------===//

#include "api/Serialize.h"

#include "support/Format.h"

#include <cmath>
#include <limits>

using namespace offchip;

namespace {

//===----------------------------------------------------------------------===//
// Typed field readers: every helper checks presence + kind and produces a
// diagnostic naming the key, so protocol errors point at the offending
// field instead of generically failing the request.
//===----------------------------------------------------------------------===//

bool keyError(std::string *Err, const std::string &Key, const char *What) {
  if (Err)
    *Err = formatString("field '%s': %s", Key.c_str(), What);
  return false;
}

bool readU64(const JsonValue &Obj, const std::string &Key, std::uint64_t *Out,
             std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isNumber())
    return keyError(Err, Key, "expected a number");
  *Out = V->asU64();
  return true;
}

bool readU32(const JsonValue &Obj, const std::string &Key, unsigned *Out,
             std::string *Err) {
  std::uint64_t V64;
  if (!readU64(Obj, Key, &V64, Err))
    return false;
  if (V64 > std::numeric_limits<unsigned>::max())
    return keyError(Err, Key, "value exceeds 32 bits");
  *Out = static_cast<unsigned>(V64);
  return true;
}

bool readF64(const JsonValue &Obj, const std::string &Key, double *Out,
             std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isNumber())
    return keyError(Err, Key, "expected a number");
  *Out = V->asDouble();
  return true;
}

bool readBool(const JsonValue &Obj, const std::string &Key, bool *Out,
              std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isBool())
    return keyError(Err, Key, "expected true or false");
  *Out = V->asBool();
  return true;
}

bool readString(const JsonValue &Obj, const std::string &Key,
                std::string *Out, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isString())
    return keyError(Err, Key, "expected a string");
  *Out = V->asString();
  return true;
}

JsonValue u64Array(const std::vector<std::uint64_t> &V) {
  JsonValue A = JsonValue::array();
  for (std::uint64_t X : V)
    A.push(JsonValue::number(X));
  return A;
}

JsonValue f64Array(const std::vector<double> &V) {
  JsonValue A = JsonValue::array();
  for (double X : V)
    A.push(JsonValue::number(X));
  return A;
}

bool readU64Array(const JsonValue &Obj, const std::string &Key,
                  std::vector<std::uint64_t> *Out, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isArray())
    return keyError(Err, Key, "expected an array of numbers");
  Out->clear();
  for (std::size_t I = 0; I < V->size(); ++I) {
    if (!V->at(I).isNumber())
      return keyError(Err, Key, "expected an array of numbers");
    Out->push_back(V->at(I).asU64());
  }
  return true;
}

bool readU32Array(const JsonValue &Obj, const std::string &Key,
                  std::vector<unsigned> *Out, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isArray())
    return keyError(Err, Key, "expected an array of numbers");
  Out->clear();
  for (std::size_t I = 0; I < V->size(); ++I) {
    if (!V->at(I).isNumber())
      return keyError(Err, Key, "expected an array of numbers");
    std::uint64_t N = V->at(I).asU64();
    if (N > 0xFFFFFFFFull)
      return keyError(Err, Key, "array element exceeds 32 bits");
    Out->push_back(static_cast<unsigned>(N));
  }
  return true;
}

bool readF64Array(const JsonValue &Obj, const std::string &Key,
                  std::vector<double> *Out, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isArray())
    return keyError(Err, Key, "expected an array of numbers");
  Out->clear();
  for (std::size_t I = 0; I < V->size(); ++I) {
    if (!V->at(I).isNumber())
      return keyError(Err, Key, "expected an array of numbers");
    Out->push_back(V->at(I).asDouble());
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Accumulators and histograms
//===----------------------------------------------------------------------===//

JsonValue accumulatorJson(const Accumulator &A) {
  JsonValue O = JsonValue::object();
  O.set("count", JsonValue::number(A.count()));
  O.set("sum", JsonValue::number(A.sum()));
  O.set("min", JsonValue::number(A.min()));
  O.set("max", JsonValue::number(A.max()));
  return O;
}

bool accumulatorFromJson(const JsonValue &Obj, const std::string &Key,
                         Accumulator *A, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isObject())
    return keyError(Err, Key, "expected an accumulator object");
  std::uint64_t Count;
  double Sum, Min, Max;
  if (!readU64(*V, "count", &Count, Err) || !readF64(*V, "sum", &Sum, Err) ||
      !readF64(*V, "min", &Min, Err) || !readF64(*V, "max", &Max, Err))
    return false;
  *A = Accumulator::fromMoments(Count, Sum, Min, Max);
  return true;
}

JsonValue histogramJson(const IntHistogram &H) {
  JsonValue O = JsonValue::object();
  O.set("cap", JsonValue::number(H.cap()));
  JsonValue Buckets = JsonValue::array();
  if (H.total() != 0)
    for (unsigned I = 0; I <= H.maxNonEmptyBucket(); ++I)
      Buckets.push(JsonValue::number(H.countAt(I)));
  O.set("buckets", std::move(Buckets));
  return O;
}

bool histogramFromJson(const JsonValue &Obj, const std::string &Key,
                       IntHistogram *H, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isObject())
    return keyError(Err, Key, "expected a histogram object");
  unsigned Cap;
  std::vector<std::uint64_t> Buckets;
  if (!readU32(*V, "cap", &Cap, Err) ||
      !readU64Array(*V, "buckets", &Buckets, Err))
    return false;
  *H = IntHistogram::fromBuckets(Cap, std::move(Buckets));
  return true;
}

//===----------------------------------------------------------------------===//
// Enum spellings
//===----------------------------------------------------------------------===//

// Placement spellings live with the enum (noc/Mesh.h: mcPlacementName /
// mcPlacementFromName) so the CLI flags and this wire layer can never
// drift apart.

const char *granularityName(InterleaveGranularity G) {
  return G == InterleaveGranularity::CacheLine ? "line" : "page";
}

bool granularityFromName(const std::string &S, InterleaveGranularity *Out) {
  if (S == "line")
    *Out = InterleaveGranularity::CacheLine;
  else if (S == "page")
    *Out = InterleaveGranularity::Page;
  else
    return false;
  return true;
}

const char *pagePolicyName(PageAllocPolicy P) {
  switch (P) {
  case PageAllocPolicy::InterleavedRoundRobin:
    return "round_robin";
  case PageAllocPolicy::FirstTouch:
    return "first_touch";
  case PageAllocPolicy::CompilerGuided:
    return "compiler_guided";
  }
  return "round_robin";
}

bool pagePolicyFromName(const std::string &S, PageAllocPolicy *Out) {
  if (S == "round_robin")
    *Out = PageAllocPolicy::InterleavedRoundRobin;
  else if (S == "first_touch")
    *Out = PageAllocPolicy::FirstTouch;
  else if (S == "compiler_guided")
    *Out = PageAllocPolicy::CompilerGuided;
  else
    return false;
  return true;
}

const char *coherenceName(MachineConfig::CoherenceProtocol P) {
  switch (P) {
  case MachineConfig::CoherenceProtocol::None:
    return "none";
  case MachineConfig::CoherenceProtocol::MSI:
    return "msi";
  case MachineConfig::CoherenceProtocol::MESI:
    return "mesi";
  }
  return "none";
}

bool coherenceFromName(const std::string &S,
                       MachineConfig::CoherenceProtocol *Out) {
  if (S == "none")
    *Out = MachineConfig::CoherenceProtocol::None;
  else if (S == "msi")
    *Out = MachineConfig::CoherenceProtocol::MSI;
  else if (S == "mesi")
    *Out = MachineConfig::CoherenceProtocol::MESI;
  else
    return false;
  return true;
}

const char *statusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Error:
    return "error";
  case ResponseStatus::Overloaded:
    return "overloaded";
  }
  return "error";
}

} // namespace

//===----------------------------------------------------------------------===//
// MachineConfig
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const MachineConfig &C) {
  JsonValue O = JsonValue::object();
  O.set("mesh_x", JsonValue::number(C.MeshX));
  O.set("mesh_y", JsonValue::number(C.MeshY));
  O.set("l1_size_bytes", JsonValue::number(C.L1SizeBytes));
  O.set("l1_line_bytes", JsonValue::number(C.L1LineBytes));
  O.set("l1_ways", JsonValue::number(C.L1Ways));
  O.set("l1_latency_cycles", JsonValue::number(C.L1LatencyCycles));
  O.set("l2_size_bytes", JsonValue::number(C.L2SizeBytes));
  O.set("l2_line_bytes", JsonValue::number(C.L2LineBytes));
  O.set("l2_ways", JsonValue::number(C.L2Ways));
  O.set("l2_latency_cycles", JsonValue::number(C.L2LatencyCycles));
  O.set("shared_l2", JsonValue::boolean(C.SharedL2));
  O.set("noc_per_hop_cycles", JsonValue::number(C.Noc.PerHopCycles));
  O.set("noc_link_bytes", JsonValue::number(C.Noc.LinkBytes));
  O.set("num_mcs", JsonValue::number(C.NumMCs));
  O.set("placement", JsonValue::string(mcPlacementName(C.Placement)));
  // Only an Explicit placement has a node list to carry; every other kind
  // keeps the pre-Explicit wire layout byte-for-byte.
  if (C.Placement == MCPlacementKind::Explicit) {
    JsonValue Nodes = JsonValue::array();
    for (unsigned N : C.MCNodes)
      Nodes.push(JsonValue::number(N));
    O.set("mc_nodes", std::move(Nodes));
  }
  O.set("dram_banks", JsonValue::number(C.Dram.Banks));
  O.set("dram_row_buffer_bytes", JsonValue::number(C.Dram.RowBufferBytes));
  O.set("dram_frfcfs_window_rows",
        JsonValue::number(C.Dram.FrFcfsWindowRows));
  O.set("dram_row_hit_cycles", JsonValue::number(C.Dram.Timing.RowHitCycles));
  O.set("dram_row_miss_cycles",
        JsonValue::number(C.Dram.Timing.RowMissCycles));
  O.set("bytes_per_mc", JsonValue::number(C.BytesPerMC));
  O.set("granularity", JsonValue::string(granularityName(C.Granularity)));
  O.set("page_bytes", JsonValue::number(C.PageBytes));
  O.set("page_policy", JsonValue::string(pagePolicyName(C.PagePolicy)));
  O.set("threads_per_core", JsonValue::number(C.ThreadsPerCore));
  O.set("compute_gap_cycles", JsonValue::number(C.ComputeGapCycles));
  O.set("transform_overhead_cycles",
        JsonValue::number(C.TransformOverheadCycles));
  O.set("directory_latency_cycles",
        JsonValue::number(C.DirectoryLatencyCycles));
  O.set("request_bytes", JsonValue::number(C.RequestBytes));
  O.set("optimal_scheme", JsonValue::boolean(C.OptimalScheme));
  O.set("burst_coalesce", JsonValue::boolean(C.Burst.Enabled));
  O.set("burst_window_accesses", JsonValue::number(C.Burst.WindowAccesses));
  O.set("burst_max_lines", JsonValue::number(C.Burst.MaxLines));
  O.set("dram_burst_beat_cycles",
        JsonValue::number(C.Dram.Timing.BurstBeatCycles));
  O.set("coherence", JsonValue::string(coherenceName(C.Coherence.Protocol)));
  O.set("coherence_sparse_dir",
        JsonValue::boolean(C.Coherence.SparseDirectory));
  O.set("coherence_sparse_entries",
        JsonValue::number(C.Coherence.SparseEntries));
  O.set("coherence_ack_bytes", JsonValue::number(C.Coherence.AckBytes));
  O.set("coherence_invalidate_bytes",
        JsonValue::number(C.Coherence.InvalidateBytes));
  O.set("check_invariants", JsonValue::boolean(C.CheckInvariants));
  return O;
}

bool offchip::machineConfigFromJson(const JsonValue &V, MachineConfig *C,
                                    std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "config", "expected an object");
  for (const auto &M : V.members()) {
    const std::string &Key = M.first;
    bool Ok = true;
    if (Key == "mesh_x")
      Ok = readU32(V, Key, &C->MeshX, Err);
    else if (Key == "mesh_y")
      Ok = readU32(V, Key, &C->MeshY, Err);
    else if (Key == "l1_size_bytes")
      Ok = readU64(V, Key, &C->L1SizeBytes, Err);
    else if (Key == "l1_line_bytes")
      Ok = readU32(V, Key, &C->L1LineBytes, Err);
    else if (Key == "l1_ways")
      Ok = readU32(V, Key, &C->L1Ways, Err);
    else if (Key == "l1_latency_cycles")
      Ok = readU32(V, Key, &C->L1LatencyCycles, Err);
    else if (Key == "l2_size_bytes")
      Ok = readU64(V, Key, &C->L2SizeBytes, Err);
    else if (Key == "l2_line_bytes")
      Ok = readU32(V, Key, &C->L2LineBytes, Err);
    else if (Key == "l2_ways")
      Ok = readU32(V, Key, &C->L2Ways, Err);
    else if (Key == "l2_latency_cycles")
      Ok = readU32(V, Key, &C->L2LatencyCycles, Err);
    else if (Key == "shared_l2")
      Ok = readBool(V, Key, &C->SharedL2, Err);
    else if (Key == "noc_per_hop_cycles")
      Ok = readU32(V, Key, &C->Noc.PerHopCycles, Err);
    else if (Key == "noc_link_bytes")
      Ok = readU32(V, Key, &C->Noc.LinkBytes, Err);
    else if (Key == "num_mcs")
      Ok = readU32(V, Key, &C->NumMCs, Err);
    else if (Key == "placement") {
      std::string S;
      Ok = readString(V, Key, &S, Err) &&
           (mcPlacementFromName(S, &C->Placement) ||
            keyError(Err, Key,
                     (std::string("expected one of: ") + mcPlacementNames())
                         .c_str()));
    } else if (Key == "mc_nodes")
      Ok = readU32Array(V, Key, &C->MCNodes, Err);
    else if (Key == "dram_banks")
      Ok = readU32(V, Key, &C->Dram.Banks, Err);
    else if (Key == "dram_row_buffer_bytes")
      Ok = readU32(V, Key, &C->Dram.RowBufferBytes, Err);
    else if (Key == "dram_frfcfs_window_rows")
      Ok = readU32(V, Key, &C->Dram.FrFcfsWindowRows, Err);
    else if (Key == "dram_row_hit_cycles")
      Ok = readU32(V, Key, &C->Dram.Timing.RowHitCycles, Err);
    else if (Key == "dram_row_miss_cycles")
      Ok = readU32(V, Key, &C->Dram.Timing.RowMissCycles, Err);
    else if (Key == "bytes_per_mc")
      Ok = readU64(V, Key, &C->BytesPerMC, Err);
    else if (Key == "granularity") {
      std::string S;
      Ok = readString(V, Key, &S, Err) &&
           (granularityFromName(S, &C->Granularity) ||
            keyError(Err, Key, "expected line or page"));
    } else if (Key == "page_bytes")
      Ok = readU32(V, Key, &C->PageBytes, Err);
    else if (Key == "page_policy") {
      std::string S;
      Ok = readString(V, Key, &S, Err) &&
           (pagePolicyFromName(S, &C->PagePolicy) ||
            keyError(Err, Key,
                     "expected round_robin, first_touch or compiler_guided"));
    } else if (Key == "threads_per_core")
      Ok = readU32(V, Key, &C->ThreadsPerCore, Err);
    else if (Key == "compute_gap_cycles")
      Ok = readU32(V, Key, &C->ComputeGapCycles, Err);
    else if (Key == "transform_overhead_cycles")
      Ok = readU32(V, Key, &C->TransformOverheadCycles, Err);
    else if (Key == "directory_latency_cycles")
      Ok = readU32(V, Key, &C->DirectoryLatencyCycles, Err);
    else if (Key == "request_bytes")
      Ok = readU32(V, Key, &C->RequestBytes, Err);
    else if (Key == "optimal_scheme")
      Ok = readBool(V, Key, &C->OptimalScheme, Err);
    else if (Key == "burst_coalesce")
      Ok = readBool(V, Key, &C->Burst.Enabled, Err);
    else if (Key == "burst_window_accesses")
      Ok = readU32(V, Key, &C->Burst.WindowAccesses, Err);
    else if (Key == "burst_max_lines")
      Ok = readU32(V, Key, &C->Burst.MaxLines, Err);
    else if (Key == "dram_burst_beat_cycles")
      Ok = readU32(V, Key, &C->Dram.Timing.BurstBeatCycles, Err);
    else if (Key == "coherence") {
      std::string S;
      Ok = readString(V, Key, &S, Err) &&
           (coherenceFromName(S, &C->Coherence.Protocol) ||
            keyError(Err, Key, "expected none, msi or mesi"));
    } else if (Key == "coherence_sparse_dir")
      Ok = readBool(V, Key, &C->Coherence.SparseDirectory, Err);
    else if (Key == "coherence_sparse_entries")
      Ok = readU32(V, Key, &C->Coherence.SparseEntries, Err);
    else if (Key == "coherence_ack_bytes")
      Ok = readU32(V, Key, &C->Coherence.AckBytes, Err);
    else if (Key == "coherence_invalidate_bytes")
      Ok = readU32(V, Key, &C->Coherence.InvalidateBytes, Err);
    else if (Key == "check_invariants")
      Ok = readBool(V, Key, &C->CheckInvariants, Err);
    else
      return keyError(Err, Key, "unknown machine config key");
    if (!Ok)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimResult
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const SimResult &R) {
  JsonValue O = JsonValue::object();
  O.set("execution_cycles", JsonValue::number(R.ExecutionCycles));
  O.set("thread_finish_cycles", u64Array(R.ThreadFinishCycles));
  O.set("total_accesses", JsonValue::number(R.TotalAccesses));
  O.set("l1_hits", JsonValue::number(R.L1Hits));
  O.set("local_l2_hits", JsonValue::number(R.LocalL2Hits));
  O.set("remote_l2_hits", JsonValue::number(R.RemoteL2Hits));
  O.set("offchip_accesses", JsonValue::number(R.OffChipAccesses));
  O.set("onchip_net_latency", accumulatorJson(R.OnChipNetLatency));
  O.set("offchip_net_latency", accumulatorJson(R.OffChipNetLatency));
  O.set("mem_latency", accumulatorJson(R.MemLatency));
  O.set("access_latency", accumulatorJson(R.AccessLatency));
  O.set("offnet_latency_hist", histogramJson(R.OffNetLatencyHist));
  O.set("onchip_msg_hops", histogramJson(R.OnChipMsgHops));
  O.set("offchip_msg_hops", histogramJson(R.OffChipMsgHops));
  O.set("num_nodes", JsonValue::number(R.NumNodes));
  O.set("num_mcs", JsonValue::number(R.NumMCs));
  O.set("node_to_mc_traffic", u64Array(R.NodeToMCTraffic));
  O.set("avg_bank_queue_occupancy",
        JsonValue::number(R.AvgBankQueueOccupancy));
  O.set("row_hit_rate", JsonValue::number(R.RowHitRate));
  O.set("per_mc_queue_occupancy", f64Array(R.PerMCQueueOccupancy));
  O.set("per_mc_accesses", u64Array(R.PerMCAccesses));
  O.set("redirected_pages", JsonValue::number(R.RedirectedPages));
  O.set("allocated_pages", JsonValue::number(R.AllocatedPages));
  O.set("burst_transactions", JsonValue::number(R.BurstTransactions));
  O.set("burst_lines", JsonValue::number(R.BurstLines));
  O.set("per_mc_lines", u64Array(R.PerMCLines));
  O.set("coherence_upgrades", JsonValue::number(R.CoherenceUpgrades));
  O.set("invalidations", JsonValue::number(R.Invalidations));
  O.set("invalidation_acks", JsonValue::number(R.InvalidationAcks));
  O.set("downgrades", JsonValue::number(R.Downgrades));
  O.set("coherence_writebacks", JsonValue::number(R.CoherenceWritebacks));
  O.set("exclusive_grants", JsonValue::number(R.ExclusiveGrants));
  O.set("dir_evictions", JsonValue::number(R.DirEvictions));
  O.set("coh_msg_hops", histogramJson(R.CohMsgHops));
  O.set("link_busy_cycles", JsonValue::number(R.LinkBusyCycles));
  return O;
}

bool offchip::simResultFromJson(const JsonValue &V, SimResult *R,
                                std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "result", "expected an object");
  *R = SimResult();
  return readU64(V, "execution_cycles", &R->ExecutionCycles, Err) &&
         readU64Array(V, "thread_finish_cycles", &R->ThreadFinishCycles,
                      Err) &&
         readU64(V, "total_accesses", &R->TotalAccesses, Err) &&
         readU64(V, "l1_hits", &R->L1Hits, Err) &&
         readU64(V, "local_l2_hits", &R->LocalL2Hits, Err) &&
         readU64(V, "remote_l2_hits", &R->RemoteL2Hits, Err) &&
         readU64(V, "offchip_accesses", &R->OffChipAccesses, Err) &&
         accumulatorFromJson(V, "onchip_net_latency", &R->OnChipNetLatency,
                             Err) &&
         accumulatorFromJson(V, "offchip_net_latency", &R->OffChipNetLatency,
                             Err) &&
         accumulatorFromJson(V, "mem_latency", &R->MemLatency, Err) &&
         accumulatorFromJson(V, "access_latency", &R->AccessLatency, Err) &&
         histogramFromJson(V, "offnet_latency_hist", &R->OffNetLatencyHist,
                           Err) &&
         histogramFromJson(V, "onchip_msg_hops", &R->OnChipMsgHops, Err) &&
         histogramFromJson(V, "offchip_msg_hops", &R->OffChipMsgHops, Err) &&
         readU32(V, "num_nodes", &R->NumNodes, Err) &&
         readU32(V, "num_mcs", &R->NumMCs, Err) &&
         readU64Array(V, "node_to_mc_traffic", &R->NodeToMCTraffic, Err) &&
         readF64(V, "avg_bank_queue_occupancy", &R->AvgBankQueueOccupancy,
                 Err) &&
         readF64(V, "row_hit_rate", &R->RowHitRate, Err) &&
         readF64Array(V, "per_mc_queue_occupancy", &R->PerMCQueueOccupancy,
                      Err) &&
         readU64Array(V, "per_mc_accesses", &R->PerMCAccesses, Err) &&
         readU64(V, "redirected_pages", &R->RedirectedPages, Err) &&
         readU64(V, "allocated_pages", &R->AllocatedPages, Err) &&
         // Optional: absent in results serialized before the burst
         // coalescer existed (the burst-off defaults are all zero).
         (!V.find("burst_transactions") ||
          readU64(V, "burst_transactions", &R->BurstTransactions, Err)) &&
         (!V.find("burst_lines") ||
          readU64(V, "burst_lines", &R->BurstLines, Err)) &&
         (!V.find("per_mc_lines") ||
          readU64Array(V, "per_mc_lines", &R->PerMCLines, Err)) &&
         // Optional: absent in results serialized before coherence existed
         // (the coherence-off defaults are all zero).
         (!V.find("coherence_upgrades") ||
          readU64(V, "coherence_upgrades", &R->CoherenceUpgrades, Err)) &&
         (!V.find("invalidations") ||
          readU64(V, "invalidations", &R->Invalidations, Err)) &&
         (!V.find("invalidation_acks") ||
          readU64(V, "invalidation_acks", &R->InvalidationAcks, Err)) &&
         (!V.find("downgrades") ||
          readU64(V, "downgrades", &R->Downgrades, Err)) &&
         (!V.find("coherence_writebacks") ||
          readU64(V, "coherence_writebacks", &R->CoherenceWritebacks, Err)) &&
         (!V.find("exclusive_grants") ||
          readU64(V, "exclusive_grants", &R->ExclusiveGrants, Err)) &&
         (!V.find("dir_evictions") ||
          readU64(V, "dir_evictions", &R->DirEvictions, Err)) &&
         (!V.find("coh_msg_hops") ||
          histogramFromJson(V, "coh_msg_hops", &R->CohMsgHops, Err)) &&
         (!V.find("link_busy_cycles") ||
          readU64(V, "link_busy_cycles", &R->LinkBusyCycles, Err));
}

//===----------------------------------------------------------------------===//
// PlanSummary
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const PlanSummary &P) {
  JsonValue O = JsonValue::object();
  O.set("program", JsonValue::string(P.ProgramName));
  O.set("clusters", JsonValue::number(P.NumClusters));
  O.set("cores_per_cluster_x", JsonValue::number(P.CoresPerClusterX));
  O.set("cores_per_cluster_y", JsonValue::number(P.CoresPerClusterY));
  O.set("mcs_per_cluster", JsonValue::number(P.MCsPerCluster));
  JsonValue Arrays = JsonValue::array();
  for (const PlanArrayRow &Row : P.Arrays) {
    JsonValue A = JsonValue::object();
    A.set("name", JsonValue::string(Row.Name));
    A.set("optimized", JsonValue::boolean(Row.Optimized));
    A.set("u", JsonValue::string(Row.U));
    A.set("note", JsonValue::string(Row.Note));
    Arrays.push(std::move(A));
  }
  O.set("arrays", std::move(Arrays));
  O.set("arrays_optimized_fraction",
        JsonValue::number(P.ArraysOptimizedFraction));
  O.set("refs_satisfied_fraction",
        JsonValue::number(P.RefsSatisfiedFraction));
  O.set("source", JsonValue::string(P.TransformedSource));
  return O;
}

bool offchip::planSummaryFromJson(const JsonValue &V, PlanSummary *P,
                                  std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "plan", "expected an object");
  *P = PlanSummary();
  if (!readString(V, "program", &P->ProgramName, Err) ||
      !readU32(V, "clusters", &P->NumClusters, Err) ||
      !readU32(V, "cores_per_cluster_x", &P->CoresPerClusterX, Err) ||
      !readU32(V, "cores_per_cluster_y", &P->CoresPerClusterY, Err) ||
      !readU32(V, "mcs_per_cluster", &P->MCsPerCluster, Err) ||
      !readF64(V, "arrays_optimized_fraction", &P->ArraysOptimizedFraction,
               Err) ||
      !readF64(V, "refs_satisfied_fraction", &P->RefsSatisfiedFraction,
               Err) ||
      !readString(V, "source", &P->TransformedSource, Err))
    return false;
  const JsonValue *Arrays = V.find("arrays");
  if (!Arrays || !Arrays->isArray())
    return keyError(Err, "arrays", "expected an array");
  for (std::size_t I = 0; I < Arrays->size(); ++I) {
    const JsonValue &A = Arrays->at(I);
    if (!A.isObject())
      return keyError(Err, "arrays", "expected an array of objects");
    PlanArrayRow Row;
    if (!readString(A, "name", &Row.Name, Err) ||
        !readBool(A, "optimized", &Row.Optimized, Err) ||
        !readString(A, "u", &Row.U, Err) ||
        !readString(A, "note", &Row.Note, Err))
      return false;
    P->Arrays.push_back(std::move(Row));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimRequest
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const SimRequest &R) {
  JsonValue O = JsonValue::object();
  if (!R.Id.empty())
    O.set("id", JsonValue::string(R.Id));
  O.set("method", JsonValue::string(R.Kind == RequestKind::Optimize
                                        ? "optimize"
                                        : "simulate"));
  if (R.Workload.isApp()) {
    O.set("app", JsonValue::string(R.Workload.App));
    O.set("scale", JsonValue::number(R.Workload.SizeScale));
  } else {
    O.set("program", JsonValue::string(R.Workload.ProgramText));
  }
  if (R.MCsPerCluster != 1)
    O.set("mcs_per_cluster", JsonValue::number(R.MCsPerCluster));
  O.set("config", toJson(R.Config));
  return O;
}

bool offchip::requestFromJson(const JsonValue &V, SimRequest *R,
                              std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "request", "expected an object");
  *R = SimRequest();
  bool SawApp = false, SawProgram = false;
  for (const auto &M : V.members()) {
    const std::string &Key = M.first;
    bool Ok = true;
    if (Key == "id")
      Ok = readString(V, Key, &R->Id, Err);
    else if (Key == "method") {
      std::string S;
      Ok = readString(V, Key, &S, Err);
      if (Ok) {
        if (S == "optimize")
          R->Kind = RequestKind::Optimize;
        else if (S == "simulate")
          R->Kind = RequestKind::Simulate;
        else
          return keyError(Err, Key, "expected optimize or simulate");
      }
    } else if (Key == "app") {
      Ok = readString(V, Key, &R->Workload.App, Err);
      SawApp = true;
    } else if (Key == "scale") {
      Ok = readF64(V, Key, &R->Workload.SizeScale, Err);
      // A zero, negative or non-finite scale builds a degenerate workload
      // that would still be answered ok and cached under its own key.
      if (Ok && !(std::isfinite(R->Workload.SizeScale) &&
                  R->Workload.SizeScale > 0.0))
        return keyError(Err, Key, "must be a finite number > 0");
    } else if (Key == "program") {
      Ok = readString(V, Key, &R->Workload.ProgramText, Err);
      SawProgram = true;
    } else if (Key == "mcs_per_cluster")
      Ok = readU32(V, Key, &R->MCsPerCluster, Err);
    else if (Key == "config")
      Ok = machineConfigFromJson(M.second, &R->Config, Err);
    else
      return keyError(Err, Key, "unknown request key");
    if (!Ok)
      return false;
  }
  if (!V.find("method"))
    return keyError(Err, "method", "required");
  if (SawApp == SawProgram)
    return keyError(Err, "app",
                    "exactly one of 'app' or 'program' is required");
  if (SawApp && R->Workload.App.empty())
    return keyError(Err, "app", "must not be empty");
  return true;
}

//===----------------------------------------------------------------------===//
// SimResponse
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const SimResponse &R) {
  JsonValue O = JsonValue::object();
  if (!R.Id.empty())
    O.set("id", JsonValue::string(R.Id));
  O.set("status", JsonValue::string(statusName(R.Status)));
  switch (R.Status) {
  case ResponseStatus::Overloaded:
    break;
  case ResponseStatus::Error: {
    if (!R.ErrorText.empty())
      O.set("error", JsonValue::string(R.ErrorText));
    if (!R.Diagnostics.empty()) {
      JsonValue Diags = JsonValue::array();
      for (const ConfigDiagnostic &D : R.Diagnostics) {
        JsonValue J = JsonValue::object();
        J.set("field", JsonValue::string(D.Field));
        J.set("value", JsonValue::string(D.Value));
        J.set("constraint", JsonValue::string(D.Constraint));
        J.set("fix", JsonValue::string(D.Fix));
        Diags.push(std::move(J));
      }
      O.set("diagnostics", std::move(Diags));
    }
    break;
  }
  case ResponseStatus::Ok:
    O.set("cache", JsonValue::string(R.CacheHit ? "hit" : "miss"));
    // Written only when set so pre-single-flight response bytes are
    // unchanged; absent means false on the read side.
    if (R.Singleflight)
      O.set("singleflight", JsonValue::boolean(true));
    if (!R.Key.empty())
      O.set("key", JsonValue::string(R.Key));
    O.set("server_seconds", JsonValue::number(R.ServerSeconds));
    O.set("plan", toJson(R.Plan));
    if (R.Original)
      O.set("original", toJson(*R.Original));
    if (R.Optimized)
      O.set("optimized", toJson(*R.Optimized));
    break;
  }
  return O;
}

bool offchip::responseFromJson(const JsonValue &V, SimResponse *R,
                               std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "response", "expected an object");
  *R = SimResponse();
  if (const JsonValue *Id = V.find("id")) {
    if (!Id->isString())
      return keyError(Err, "id", "expected a string");
    R->Id = Id->asString();
  }
  std::string Status;
  if (!readString(V, "status", &Status, Err))
    return false;
  if (Status == "overloaded") {
    R->Status = ResponseStatus::Overloaded;
    return true;
  }
  if (Status == "error") {
    R->Status = ResponseStatus::Error;
    if (const JsonValue *E = V.find("error")) {
      if (!E->isString())
        return keyError(Err, "error", "expected a string");
      R->ErrorText = E->asString();
    }
    if (const JsonValue *Diags = V.find("diagnostics")) {
      if (!Diags->isArray())
        return keyError(Err, "diagnostics", "expected an array");
      for (std::size_t I = 0; I < Diags->size(); ++I) {
        const JsonValue &D = Diags->at(I);
        ConfigDiagnostic CD;
        if (!D.isObject() || !readString(D, "field", &CD.Field, Err) ||
            !readString(D, "value", &CD.Value, Err) ||
            !readString(D, "constraint", &CD.Constraint, Err) ||
            !readString(D, "fix", &CD.Fix, Err))
          return false;
        R->Diagnostics.push_back(std::move(CD));
      }
    }
    return true;
  }
  if (Status != "ok")
    return keyError(Err, "status", "expected ok, error or overloaded");
  R->Status = ResponseStatus::Ok;
  std::string Cache;
  if (!readString(V, "cache", &Cache, Err))
    return false;
  if (Cache != "hit" && Cache != "miss")
    return keyError(Err, "cache", "expected hit or miss");
  R->CacheHit = Cache == "hit";
  if (const JsonValue *SF = V.find("singleflight")) {
    if (!SF->isBool())
      return keyError(Err, "singleflight", "expected true or false");
    R->Singleflight = SF->asBool();
  }
  if (const JsonValue *Key = V.find("key")) {
    if (!Key->isString())
      return keyError(Err, "key", "expected a string");
    R->Key = Key->asString();
  }
  if (!readF64(V, "server_seconds", &R->ServerSeconds, Err))
    return false;
  const JsonValue *Plan = V.find("plan");
  if (!Plan || !planSummaryFromJson(*Plan, &R->Plan, Err))
    return Plan ? false : keyError(Err, "plan", "required for ok responses");
  if (const JsonValue *Orig = V.find("original")) {
    SimResult S;
    if (!simResultFromJson(*Orig, &S, Err))
      return false;
    R->Original = std::move(S);
  }
  if (const JsonValue *Opt = V.find("optimized")) {
    SimResult S;
    if (!simResultFromJson(*Opt, &S, Err))
      return false;
    R->Optimized = std::move(S);
  }
  return true;
}

std::string offchip::writeRequestLine(const SimRequest &R) {
  return toJson(R).write() + "\n";
}

std::string offchip::writeResponseLine(const SimResponse &R) {
  return toJson(R).write() + "\n";
}
