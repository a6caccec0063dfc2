//===- sim/MachineConfig.cpp ----------------------------------------------===//

#include "sim/MachineConfig.h"

#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/Options.h"

#include <algorithm>
#include <cstdio>

using namespace offchip;

std::string ConfigDiagnostic::str() const {
  return Field + " = " + Value + ": " + Constraint + " (fix: " + Fix + ")";
}

std::string offchip::renderDiagnostics(
    const std::vector<ConfigDiagnostic> &Diags) {
  std::string Out;
  for (const ConfigDiagnostic &D : Diags) {
    if (!Out.empty())
      Out += "\n";
    Out += "invalid machine config: " + D.str();
  }
  return Out;
}

MachineConfig MachineConfig::paperDefault() { return MachineConfig(); }

MachineConfig MachineConfig::scaledDefault() {
  MachineConfig C;
  // Keep Table 1's ratios (ways, line sizes, latencies) but shrink
  // capacities so the scaled workloads stress the memory system at
  // simulation-friendly sizes: 2 KB L1s and 32 KB L2 slices give a 1 MB
  // aggregate L2 against multi-MB working sets.
  C.L1SizeBytes = 2 * 1024;
  C.L2SizeBytes = 16 * 1024;
  // MC-phase alignment forces every array base onto the same 1 KB phase, so
  // a scaled 2-way L1 would thrash on inter-array set conflicts that the
  // paper's padding (Rivera-Tseng) removes; higher associativity is the
  // scaled surrogate for that padding.
  C.L1Ways = 8;
  return C;
}

LayoutOptions MachineConfig::layoutOptions() const {
  LayoutOptions O;
  O.SharedL2 = SharedL2;
  O.Granularity = Granularity;
  O.CacheLineBytes = L2LineBytes;
  O.PageBytes = PageBytes;
  return O;
}

namespace {

/// True when some c_x * c_y == NumGroups factorization divides the mesh —
/// the feasibility condition of harness/Experiment.cpp's defaultClusterGrid.
bool clusterGridExists(unsigned MeshX, unsigned MeshY, unsigned NumGroups) {
  for (unsigned X = 1; X <= NumGroups; ++X)
    if (NumGroups % X == 0 && MeshX % X == 0 && MeshY % (NumGroups / X) == 0)
      return true;
  return false;
}

/// "0,7,56,63" — the diagnostic-friendly rendering of an MC node list.
std::string nodeListText(const std::vector<unsigned> &Nodes) {
  if (Nodes.empty())
    return "(empty)";
  std::string Out;
  for (unsigned N : Nodes) {
    if (!Out.empty())
      Out += ",";
    Out += formatString("%u", N);
  }
  return Out;
}

} // namespace

std::vector<ConfigDiagnostic> MachineConfig::validate() const {
  std::vector<ConfigDiagnostic> Diags;
  auto Bad = [&Diags](const char *Field, std::uint64_t Value,
                      std::string Constraint, std::string Fix) {
    Diags.push_back({Field, formatString("%llu",
                                         static_cast<unsigned long long>(Value)),
                     std::move(Constraint), std::move(Fix)});
  };

  // Mesh geometry. Every MC placement needs distinct top/bottom rows and
  // the corner/midpoint kinds need distinct left/right columns, so the
  // floor is a 2x2 mesh; the directory's sharer bitmask caps nodes at 64.
  if (MeshX < 2)
    Bad("MeshX", MeshX, "mesh must be at least 2 columns wide",
        "use a mesh between 2x2 and 8x8");
  if (MeshY < 2)
    Bad("MeshY", MeshY, "mesh must be at least 2 rows tall",
        "use a mesh between 2x2 and 8x8");
  if (MeshX >= 2 && MeshY >= 2 && numNodes() > 64)
    Bad("MeshX*MeshY", numNodes(),
        "the directory tracks sharers in a 64-bit mask, so at most 64 nodes",
        "shrink the mesh to 8x8 or smaller");

  if (ThreadsPerCore < 1)
    Bad("ThreadsPerCore", ThreadsPerCore, "must be >= 1",
        "use 1 (Table 1) or the 2/4 of Figure 24");

  // Cache geometry: Cache's constructor divides SizeBytes by
  // LineBytes * Ways and needs at least one whole set.
  auto CheckCache = [&](const char *Level, std::uint64_t SizeBytes,
                        unsigned LineBytes, unsigned Ways) {
    std::string F = std::string(Level);
    if (LineBytes < 1)
      Bad((F + "LineBytes").c_str(), LineBytes, "must be >= 1",
        "use 64 (L1) / 256 (L2) from Table 1");
    if (Ways < 1)
      Bad((F + "Ways").c_str(), Ways, "must be >= 1",
          "use 2 (L1) / 16 (L2) from Table 1");
    if (LineBytes >= 1 && Ways >= 1) {
      std::uint64_t SetBytes = static_cast<std::uint64_t>(LineBytes) * Ways;
      if (SizeBytes < SetBytes || SizeBytes % SetBytes != 0)
        Bad((F + "SizeBytes").c_str(), SizeBytes,
            formatString("must be a positive multiple of LineBytes * Ways "
                         "= %llu",
                         static_cast<unsigned long long>(SetBytes)),
            "round the capacity to a whole number of sets");
    }
  };
  CheckCache("L1", L1SizeBytes, L1LineBytes, L1Ways);
  CheckCache("L2", L2SizeBytes, L2LineBytes, L2Ways);
  if (L1LineBytes >= 1 && L2LineBytes >= 1 && L2LineBytes % L1LineBytes != 0)
    Bad("L2LineBytes", L2LineBytes,
        formatString("must be a multiple of L1LineBytes = %u so an L1 line "
                     "never straddles two L2 lines",
                     L1LineBytes),
        "use an L2 line that is a power-of-two multiple of the L1 line");

  // Virtual memory: the page allocator decomposes addresses with shift/mask
  // math and insists on power-of-two pages; page-granularity interleaving
  // additionally needs at least one allocatable page per MC.
  if (PageBytes < 1 || !isPowerOfTwo(PageBytes))
    Bad("PageBytes", PageBytes, "must be a nonzero power of two",
        "use 4096 (Table 1) or the scaled 256");
  else if (Granularity == InterleaveGranularity::Page &&
           BytesPerMC < PageBytes)
    Bad("BytesPerMC", BytesPerMC,
        formatString("must hold at least one %u-byte page per MC under page "
                     "interleaving",
                     PageBytes),
        "raise BytesPerMC or shrink PageBytes");

  // The layout pass derives p = interleaveBytes / elementBytes; an
  // interleave unit smaller than one element makes p zero and the
  // strip-mining degenerate.
  if (interleaveBytes() < 8)
    Bad(Granularity == InterleaveGranularity::CacheLine ? "L2LineBytes"
                                                        : "PageBytes",
        interleaveBytes(),
        "the interleave unit must hold at least one array element "
        "(the workloads declare up to 8-byte elements)",
        "use an interleave unit of 8 bytes or more");

  // Memory controllers: placement capacity and the per-placement geometry
  // preconditions (noc/Mesh.cpp), the VM's int8 per-page MC hints, and the
  // M1 cluster-grid feasibility used by every mapping builder.
  if (NumMCs < 1) {
    Bad("NumMCs", NumMCs, "must be >= 1", "use 4 (Table 1)");
  } else {
    if (NumMCs > 127)
      Bad("NumMCs", NumMCs,
          "per-page MC hints are stored as int8, so at most 127 MCs",
          "use 127 or fewer MCs");
    switch (Placement) {
    case MCPlacementKind::Corners:
      if (NumMCs != 4 && (NumMCs % 2 != 0 || NumMCs / 2 > MeshX))
        Bad("NumMCs", NumMCs,
            "Corners placement needs 4 MCs, or an even count with at most "
            "MeshX MCs per horizontal edge",
            "use 4 MCs or switch to TopBottomSpread");
      break;
    case MCPlacementKind::EdgeMidpoints:
      if (NumMCs != 4)
        Bad("NumMCs", NumMCs, "EdgeMidpoints placement supports exactly 4 MCs",
            "use 4 MCs or another placement");
      break;
    case MCPlacementKind::TopBottomSpread:
      if (NumMCs % 2 != 0 || NumMCs / 2 > MeshX)
        Bad("NumMCs", NumMCs,
            "TopBottomSpread needs an even count with at most MeshX MCs per "
            "horizontal edge",
            "use an even MC count no larger than 2 * MeshX");
      break;
    case MCPlacementKind::Explicit: {
      auto BadNodes = [&](std::string Constraint, std::string Fix) {
        Diags.push_back({"MCNodes", nodeListText(MCNodes),
                         std::move(Constraint), std::move(Fix)});
      };
      if (MCNodes.size() != NumMCs)
        BadNodes(formatString("explicit placement must list exactly NumMCs "
                              "= %u node(s), got %zu",
                              NumMCs, MCNodes.size()),
                 "pass one node id per MC, e.g. --mc-nodes 0,7,56,63");
      if (MeshX >= 2 && MeshY >= 2)
        for (unsigned N : MCNodes)
          if (N >= numNodes()) {
            BadNodes(formatString("every node id must be < MeshX*MeshY = %u",
                                  numNodes()),
                     "list only on-mesh node ids");
            break;
          }
      bool Duplicated = false;
      for (std::size_t I = 0; I < MCNodes.size() && !Duplicated; ++I)
        for (std::size_t J = I + 1; J < MCNodes.size() && !Duplicated; ++J)
          Duplicated = MCNodes[I] == MCNodes[J];
      if (Duplicated)
        BadNodes("node ids must be distinct (a colliding placement would "
                 "alias two MCs' traffic onto one node)",
                 "drop the duplicated node id");
      break;
    }
    }
    if (Placement != MCPlacementKind::Explicit && !MCNodes.empty())
      Diags.push_back(
          {"MCNodes", nodeListText(MCNodes),
           formatString("an explicit node list is only honored under the "
                        "explicit placement kind (this config says %s)",
                        enumName(Placement)),
           "add --placement explicit or drop the node list"});
    if (MeshX >= 1 && MeshY >= 1 &&
        !clusterGridExists(MeshX, MeshY, NumMCs))
      Bad("NumMCs", NumMCs,
          formatString("no c_x * c_y = %u cluster grid divides the %ux%u "
                       "mesh evenly",
                       NumMCs, MeshX, MeshY),
          "pick an MC count whose factorizations divide the mesh dimensions");
  }

  // Burst coalescing: the window and the run cap must be meaningful when
  // the coalescer is on (a 0/1-line "burst" is just the normal path, and a
  // zero window can never find a candidate).
  if (Burst.Enabled) {
    if (Burst.WindowAccesses < 1)
      Bad("Burst.WindowAccesses", Burst.WindowAccesses,
          "must be >= 1 when burst coalescing is enabled",
          "use the default 256-access window");
    if (Burst.MaxLines < 2)
      Bad("Burst.MaxLines", Burst.MaxLines,
          "must be >= 2 when burst coalescing is enabled (a 1-line burst is "
          "the ordinary access path)",
          "use the default 8-line cap");
  }
  // Coherence: the protocol rides the private-L2 directory flow, so the
  // SNUCA machine has no state for it to govern, the burst coalescer's
  // ridealong fills are not coherence-aware yet, and the protocol flow has
  // no nearest-MC redirection for the optimal scheme to switch on.
  if (Coherence.enabled()) {
    if (SharedL2)
      Bad("SharedL2", 1,
          "coherence protocols model the private-L2 directory flow; the "
          "shared (SNUCA) L2 has no per-node copies to keep coherent",
          "use private L2s or drop --coherence");
    if (Burst.Enabled)
      Bad("Burst.Enabled", 1,
          "burst coalescing's ridealong fills are not coherence-aware",
          "disable one of --coherence and --burst-coalesce");
    if (OptimalScheme)
      Bad("OptimalScheme", 1,
          "the optimal scheme redirects the coherence-free flow; the "
          "coherence protocol's directory flow does not model it",
          "disable one of --coherence and the optimal scheme");
    if (Coherence.SparseDirectory && Coherence.SparseEntries < 1)
      Bad("Coherence.SparseEntries", Coherence.SparseEntries,
          "a sparse directory must track at least one line",
          "use the default 4096 entries");
    if (Coherence.AckBytes < 1)
      Bad("Coherence.AckBytes", Coherence.AckBytes,
          "ack messages must carry at least one byte",
          "use the default 8-byte ack");
    if (Coherence.InvalidateBytes < 1)
      Bad("Coherence.InvalidateBytes", Coherence.InvalidateBytes,
          "invalidation messages must carry at least one byte",
          "use the default 8-byte invalidate");
  }
  if (Dram.Timing.BurstBeatCycles < 1)
    Bad("Dram.Timing.BurstBeatCycles", Dram.Timing.BurstBeatCycles,
        "must be >= 1 (each extra line of a burst occupies the bank)",
        "use the default 8 cycles per extra line");

  // Interconnect and DRAM: each divides by these at every message/request.
  if (Noc.LinkBytes < 1)
    Bad("Noc.LinkBytes", Noc.LinkBytes, "must be >= 1",
        "use the 16-byte links of Table 1");
  if (Dram.Banks < 1)
    Bad("Dram.Banks", Dram.Banks, "must be >= 1",
        "use the 4 banks of Table 1");
  if (Dram.RowBufferBytes < 1)
    Bad("Dram.RowBufferBytes", Dram.RowBufferBytes, "must be >= 1",
        "use the 4 KB row buffer of Table 1");

  return Diags;
}

std::vector<ConfigDiagnostic>
MachineConfig::validateGrouping(unsigned MCsPerCluster) const {
  std::vector<ConfigDiagnostic> Diags;
  // The built-in placements order MCs so consecutive indices share an edge
  // region ({0,1} top / {2,3} bottom and the Figure-27 generalizations) —
  // group-compatible by construction. Ungrouped mappings (K <= 1) have no
  // assumption to violate.
  if (MCsPerCluster <= 1 || Placement != MCPlacementKind::Explicit)
    return Diags;
  // Count/divisibility/bounds violations are validate()'s and the mapping
  // builders' to report; only judge well-formed lists here.
  if (NumMCs == 0 || NumMCs % MCsPerCluster != 0 ||
      MCNodes.size() != NumMCs || MeshX < 2 || MeshY < 2)
    return Diags;
  for (unsigned N : MCNodes)
    if (N >= numNodes())
      return Diags;
  unsigned Groups = NumMCs / MCsPerCluster;
  if (Groups < 2)
    return Diags; // a single group trivially spans the whole placement
  Mesh M(MeshX, MeshY);
  unsigned GlobalSpread = 0;
  for (std::size_t I = 0; I < MCNodes.size(); ++I)
    for (std::size_t J = I + 1; J < MCNodes.size(); ++J)
      GlobalSpread =
          std::max(GlobalSpread, M.manhattan(MCNodes[I], MCNodes[J]));
  for (unsigned G = 0; G < Groups; ++G) {
    unsigned Intra = 0;
    for (unsigned I = 0; I < MCsPerCluster; ++I)
      for (unsigned J = I + 1; J < MCsPerCluster; ++J)
        Intra = std::max(Intra,
                         M.manhattan(MCNodes[G * MCsPerCluster + I],
                                     MCNodes[G * MCsPerCluster + J]));
    if (Intra >= GlobalSpread)
      Diags.push_back(
          {"MCNodes", nodeListText(MCNodes),
           formatString(
               "contiguous interleave group {%u..%u} spans %u link(s), as "
               "wide as the whole %u-link placement; grouped mappings "
               "(MCs-per-cluster = %u) assume each group's MCs sit near "
               "each other",
               G * MCsPerCluster, G * MCsPerCluster + MCsPerCluster - 1,
               Intra, GlobalSpread, MCsPerCluster),
           "reorder MCNodes so consecutive MCs are mesh neighbors, or use "
           "MCs-per-cluster 1"});
  }
  return Diags;
}

std::vector<unsigned> MachineConfig::placedMCNodes() const {
  if (Placement == MCPlacementKind::Explicit)
    return MCNodes;
  Mesh M(MeshX, MeshY);
  return placeMemoryControllers(M, NumMCs, Placement);
}

std::optional<ConfigDiagnostic>
offchip::parsePlacementOption(const std::string &Value,
                              MCPlacementKind *Kind) {
  if (enumFromName(Value, Kind))
    return std::nullopt;
  return ConfigDiagnostic{
      "Placement", Value.empty() ? "(empty)" : Value,
      std::string("unknown placement kind; valid kinds: ") +
          enumNameList<MCPlacementKind>(),
      "spell the kind exactly, e.g. --placement top_bottom_spread"};
}

bool offchip::parseCoherenceOption(const std::string &Value,
                                   MachineConfig::CoherenceProtocol *Protocol) {
  MachineConfig::CoherenceProtocol P;
  if (!enumFromName(Value, &P) || P == MachineConfig::CoherenceProtocol::None)
    return false;
  *Protocol = P;
  return true;
}

std::optional<ConfigDiagnostic>
offchip::parseMCNodeListOption(const std::string &Value,
                               std::vector<unsigned> *Nodes) {
  auto Malformed = [&](std::string Constraint) {
    return ConfigDiagnostic{
        "MCNodes", Value.empty() ? "(empty)" : Value, std::move(Constraint),
        "pass comma-separated decimal node ids, e.g. --mc-nodes 0,7,56,63"};
  };
  if (Value.empty())
    return Malformed("must list at least one node id");
  std::string Item;
  switch (parseUnsignedList(Value, Nodes, &Item)) {
  case DigitsError::Ok:
    return std::nullopt;
  case DigitsError::Empty:
    return Malformed("empty list item (stray comma)");
  case DigitsError::NotDigits:
    return Malformed(formatString(
        "'%s' is not a node id: decimal digits only (no signs, hex or "
        "whitespace)",
        Item.c_str()));
  case DigitsError::Overflow:
    break;
  }
  return Malformed(
      formatString("'%s' overflows a 32-bit node id", Item.c_str()));
}

/// A flag parse that failed with a structured diagnostic: the diagnostic
/// becomes the parser's own message, so the user sees field/value/
/// constraint/fix instead of the generic bad-value line.
static bool rejectWith(const ConfigDiagnostic &D, std::string *Message) {
  *Message = renderDiagnostics({D});
  return false;
}

void offchip::addMeshFlags(OptionsParser &P, MachineConfig &C) {
  P.custom("--mesh", "<X>x<Y>",
           [&C](const std::string &V, std::string *) {
             std::size_t Sep = V.find('x');
             unsigned X = 0, Y = 0;
             if (Sep == std::string::npos ||
                 !parseUnsigned(V.substr(0, Sep), &X, 1) ||
                 !parseUnsigned(V.substr(Sep + 1), &Y, 1))
               return false;
             C.MeshX = X;
             C.MeshY = Y;
             return true;
           },
           "mesh size (default 8x8)");
  P.value("--mcs", &C.NumMCs, "memory controllers (default 4)");
}

void offchip::addMemoryFlags(OptionsParser &P, MachineConfig &C) {
  P.custom("--placement", "<kind>",
           [&C](const std::string &V, std::string *Message) {
             if (std::optional<ConfigDiagnostic> D =
                     parsePlacementOption(V, &C.Placement))
               return rejectWith(*D, Message);
             return true;
           },
           "MC placement kind: " + enumNameList<MCPlacementKind>() +
               " (default corners)");
  P.custom("--mc-nodes", "<n0,n1,...>",
           [&C](const std::string &V, std::string *Message) {
             if (std::optional<ConfigDiagnostic> D =
                     parseMCNodeListOption(V, &C.MCNodes))
               return rejectWith(*D, Message);
             C.Placement = MCPlacementKind::Explicit;
             return true;
           },
           "explicit MC node ids, one per MC in interleave order "
           "(implies --placement explicit)");
  P.custom("--coherence", "<msi|mesi>",
           [&C](const std::string &V, std::string *) {
             return parseCoherenceOption(V, &C.Coherence.Protocol);
           },
           "model an invalidation-based coherence protocol over the "
           "private-L2 machine (default off)");
  P.custom("--sparse-dir", "<N>",
           [&C](const std::string &V, std::string *) {
             if (!parseUnsigned(V, &C.Coherence.SparseEntries, 1))
               return false;
             C.Coherence.SparseDirectory = true;
             return true;
           },
           "bound the coherence directory to N >= 1 tracked lines, evicting "
           "by broadcast-invalidate (default unbounded; needs --coherence)");
  P.flag("--burst-coalesce", &C.Burst.Enabled,
         "coalesce runs of adjacent off-chip lines into wide DRAM "
         "transactions (default off)");
}

void offchip::addTraceFlags(OptionsParser &P, MachineConfig &C,
                            std::string *OutPrefix,
                            const std::string &TraceHelp) {
  P.flag("--trace", &C.Trace.Enabled, TraceHelp);
  P.value("--trace-out", OutPrefix,
          "output path prefix for --trace files (default \"trace\")");
  P.value("--trace-sample-cycles", &C.Trace.SampleCycles,
          "bucket width of the traced link/MC time series, in cycles "
          "(>= 1)",
          /*Min=*/1);
}

std::optional<int> offchip::checkMachineFlags(const MachineConfig &C) {
  if (C.Coherence.SparseDirectory && !C.Coherence.enabled()) {
    std::fprintf(stderr, "error: --sparse-dir requires --coherence\n");
    return 2;
  }
  if (std::vector<ConfigDiagnostic> Diags = C.validate(); !Diags.empty()) {
    std::fprintf(stderr, "%s\n", renderDiagnostics(Diags).c_str());
    return 2;
  }
  return std::nullopt;
}

std::string MachineConfig::summary() const {
  // The coherence clause appears only when a protocol is selected so every
  // pre-coherence report stays byte-identical.
  std::string Coh;
  if (Coherence.enabled()) {
    Coh = Coherence.Protocol == CoherenceProtocol::MSI ? ", MSI coherence"
                                                       : ", MESI coherence";
    if (Coherence.SparseDirectory)
      Coh += formatString(" (sparse dir, %u entries)", Coherence.SparseEntries);
  }
  // The built-in spellings predate the wire spellings and are baked into
  // goldens; Explicit carries its node list so two searched machines never
  // share a summary line.
  std::string PlacementText =
      Placement == MCPlacementKind::Corners           ? "corners"
      : Placement == MCPlacementKind::EdgeMidpoints   ? "edge midpoints"
      : Placement == MCPlacementKind::TopBottomSpread ? "top/bottom spread"
      : "explicit @ " + nodeListText(MCNodes);
  return formatString(
      "%ux%u mesh, %u MCs (%s), %s L2 (%llu KB/node, %uB lines), "
      "L1 %llu KB, %s interleaving, %u thread(s)/core%s%s",
      MeshX, MeshY, NumMCs, PlacementText.c_str(),
      SharedL2 ? "shared (SNUCA)" : "private",
      static_cast<unsigned long long>(L2SizeBytes / 1024), L2LineBytes,
      static_cast<unsigned long long>(L1SizeBytes / 1024),
      Granularity == InterleaveGranularity::CacheLine ? "cache-line" : "page",
      ThreadsPerCore, OptimalScheme ? ", OPTIMAL scheme" : "", Coh.c_str());
}
