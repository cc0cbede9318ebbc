// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Ablation: SS-tree split policy — White & Jain's variance cut vs the
// SS+-style 2-means split ([20], cited by the paper as outperforming the
// original on high-dimensional similarity search). Measures build time,
// bounding tightness (root-normalized sum of squared node radii) and
// dominance-pruned kNN query time; answers are identical by construction.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/generator.h"
#include "dominance/hyperbola.h"
#include "eval/workload.h"
#include "query/knn.h"

namespace hyperdom {
namespace {

double RadiusMass(const SsTree& tree) {
  double total = 0.0;
  std::vector<const SsTreeNode*> stack = {tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    const double r = node->bounding_sphere().radius();
    total += r * r;
    if (!node->is_leaf()) {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
  return total;
}

}  // namespace
}  // namespace hyperdom

int main() {
  using namespace hyperdom;
  bench::PrintHeader("Ablation: SS-tree split policy",
                     "variance cut (SS-tree) vs 2-means (SS+-style)");

  for (size_t d : {2, 8, 16}) {
    SyntheticSpec spec;
    spec.n = 50'000;
    spec.dim = d;
    spec.radius_mean = 10.0;
    spec.center_mean = 1000.0;
    spec.center_stddev = 250.0;
    spec.seed = 0x5B117 + d;
    const auto data = GenerateSynthetic(spec);
    const auto queries = MakeKnnQueries(data, 8, 0x5B18);
    const HyperbolaCriterion exact;
    KnnOptions options;
    options.k = 10;

    std::printf("\n-- d = %zu --\n", d);
    TablePrinter table({"policy", "build", "sum r^2 (norm.)", "query time",
                        "entries accessed"});
    double baseline_mass = 0.0;
    for (SsTreeSplitPolicy policy :
         {SsTreeSplitPolicy::kVarianceCut, SsTreeSplitPolicy::kTwoMeans}) {
      SsTreeOptions tree_options;
      tree_options.split_policy = policy;
      Stopwatch watch;
      SsTree tree(d, tree_options);
      if (Status st = tree.BulkLoad(data); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      const double build_s = watch.ElapsedSeconds();
      const double mass = RadiusMass(tree);
      if (policy == SsTreeSplitPolicy::kVarianceCut) baseline_mass = mass;

      KnnSearcher searcher(&exact, options);
      double query_ns = 0.0;
      uint64_t accessed = 0;
      for (const auto& sq : queries) {
        watch.Restart();
        const KnnResult result = searcher.Search(tree, sq);
        query_ns += static_cast<double>(watch.ElapsedNs());
        accessed += result.stats.entries_accessed;
      }
      char build_str[32], mass_str[32], query_str[32];
      std::snprintf(build_str, sizeof(build_str), "%.2f s", build_s);
      std::snprintf(mass_str, sizeof(mass_str), "%.2f",
                    mass / baseline_mass);
      std::snprintf(query_str, sizeof(query_str), "%.3f ms",
                    query_ns * 1e-6 / static_cast<double>(queries.size()));
      table.AddRow({policy == SsTreeSplitPolicy::kVarianceCut ? "variance"
                                                              : "2-means",
                    build_str, mass_str, query_str,
                    std::to_string(accessed / queries.size())});
    }
    table.Print();
  }
  // Second ablation: bounding policy (centroid vs Welzl min-ball) and
  // build path (repeated insertion vs the top-down packed BulkLoadStr,
  // the "STR" rows), d = 8.
  {
    SyntheticSpec spec;
    spec.n = 50'000;
    spec.dim = 8;
    spec.radius_mean = 10.0;
    spec.center_mean = 1000.0;
    spec.center_stddev = 250.0;
    spec.seed = 0x5B119;
    const auto data = GenerateSynthetic(spec);
    const auto queries = MakeKnnQueries(data, 8, 0x5B1A);
    const HyperbolaCriterion exact;
    KnnOptions options;
    options.k = 10;

    std::printf("\n-- bounding policy and build path (d = 8) --\n");
    TablePrinter table({"configuration", "build", "query time",
                        "entries accessed"});
    struct Config {
      const char* label;
      SsTreeBoundingPolicy bounding;
      bool str;
    };
    const Config configs[] = {
        {"centroid, insert", SsTreeBoundingPolicy::kCentroid, false},
        {"min-ball, insert", SsTreeBoundingPolicy::kMinBall, false},
        {"centroid, STR", SsTreeBoundingPolicy::kCentroid, true},
        {"min-ball, STR", SsTreeBoundingPolicy::kMinBall, true},
    };
    for (const Config& config : configs) {
      SsTreeOptions tree_options;
      tree_options.bounding_policy = config.bounding;
      Stopwatch watch;
      SsTree tree(spec.dim, tree_options);
      const Status st =
          config.str ? tree.BulkLoadStr(data) : tree.BulkLoad(data);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      const double build_s = watch.ElapsedSeconds();
      KnnSearcher searcher(&exact, options);
      double query_ns = 0.0;
      uint64_t accessed = 0;
      for (const auto& sq : queries) {
        watch.Restart();
        const KnnResult result = searcher.Search(tree, sq);
        query_ns += static_cast<double>(watch.ElapsedNs());
        accessed += result.stats.entries_accessed;
      }
      char build_str[32], query_str[32];
      std::snprintf(build_str, sizeof(build_str), "%.2f s", build_s);
      std::snprintf(query_str, sizeof(query_str), "%.3f ms",
                    query_ns * 1e-6 / static_cast<double>(queries.size()));
      table.AddRow({config.label, build_str, query_str,
                    std::to_string(accessed / queries.size())});
    }
    table.Print();
  }

  std::printf(
      "\nReading: at comparable build cost the 2-means split yields\n"
      "modestly tighter node spheres (lower normalized r^2 mass) and\n"
      "slightly fewer accessed entries per query. The packed bulk load\n"
      "(STR rows) builds several times faster than repeated insertion,\n"
      "two orders of magnitude with min-ball bounds; the Welzl min-ball\n"
      "bound trades build time for tighter regions.\n");
  return 0;
}
