// Sequence analysis in the style of the paper's genomics motivation:
// given a database of DNA reads and a set of motifs, mark motif
// occurrences with packing (Example 2.2's technique), count whether a
// motif family occurs in at least three distinct contexts, and extract
// the flanking regions of each occurrence.
#include <cstdio>

#include "src/analysis/features.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/packing_elim.h"

int main() {
  seqdl::Universe u;

  seqdl::Result<seqdl::Program> program = seqdl::ParseProgram(u, R"(
    % Mark every occurrence of a motif inside a read (Example 2.2 style):
    % the motif is bracketed with packing so distinct occurrences stay
    % distinct values.
    Marked($u ++ <$m> ++ $v) <- Read($u ++ $m ++ $v), Motif($m).

    % The flanking context of each occurrence (5' flank, motif, 3' flank).
    Flank5($u) <- Marked($u ++ <$m> ++ $v).
    Flank3($v) <- Marked($u ++ <$m> ++ $v).

    % Does some motif occur in at least three different marked contexts?
    Enriched <- Marked($x), Marked($y), Marked($z),
                $x != $y, $x != $z, $y != $z.
  )");
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("program:\n%s\n",
              seqdl::FormatProgram(u, *program).c_str());

  seqdl::Result<seqdl::Instance> reads = seqdl::ParseInstance(u, R"(
    Read(a ++ c ++ g ++ t ++ a ++ c ++ g).
    Read(t ++ t ++ a ++ c ++ g ++ g).
    Read(g ++ g ++ g).
    Motif(a ++ c ++ g).
  )");
  if (!reads.ok()) {
    std::fprintf(stderr, "%s\n", reads.status().ToString().c_str());
    return 1;
  }

  seqdl::Result<seqdl::PreparedProgram> marker =
      seqdl::Engine::Compile(u, *program);
  if (!marker.ok()) {
    std::fprintf(stderr, "%s\n", marker.status().ToString().c_str());
    return 1;
  }
  seqdl::Result<seqdl::Instance> out = marker->Run(*reads);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("marked occurrences:\n%s\n",
              out->Project({*u.FindRel("Marked")}).ToString(u).c_str());
  std::printf("5' flanks:\n%s\n",
              out->Project({*u.FindRel("Flank5")}).ToString(u).c_str());
  std::printf("enriched (>= 3 distinct occurrences): %s\n\n",
              out->Contains(*u.FindRel("Enriched"), {}) ? "yes" : "no");

  // The same pipeline without packing, via Lemma 4.13: flat relations
  // only, same flat answers.
  seqdl::Result<seqdl::Program> flat =
      seqdl::EliminatePackingNonrecursive(u, *program);
  if (!flat.ok()) {
    std::fprintf(stderr, "%s\n", flat.status().ToString().c_str());
    return 1;
  }
  std::printf("packing-free rewriting has %zu rules (features %s)\n",
              flat->NumRules(),
              seqdl::DetectFeatures(*flat).ToString().c_str());
  seqdl::Result<seqdl::PreparedProgram> flat_marker =
      seqdl::Engine::Compile(u, *flat);
  if (!flat_marker.ok()) {
    std::fprintf(stderr, "%s\n", flat_marker.status().ToString().c_str());
    return 1;
  }
  seqdl::Result<seqdl::Instance> out2 = flat_marker->Run(*reads);
  if (!out2.ok()) {
    std::fprintf(stderr, "%s\n", out2.status().ToString().c_str());
    return 1;
  }
  std::printf("flat rewriting agrees on Enriched: %s\n",
              out2->Contains(*u.FindRel("Enriched"), {}) ==
                      out->Contains(*u.FindRel("Enriched"), {})
                  ? "yes"
                  : "NO");
  return 0;
}
