#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace icsc::core {
namespace {

CsrGraph tiny_chain() {
  // 0 -> 1 -> 2 -> 3, plus 0 -> 2 shortcut.
  return csr_from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
}

TEST(Graph, CsrFromEdgesStructure) {
  const auto g = tiny_chain();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 0u);
  // Neighbours of 0 sorted: {1, 2}.
  EXPECT_EQ(g.column_indices[g.row_offsets[0]], 1u);
  EXPECT_EQ(g.column_indices[g.row_offsets[0] + 1], 2u);
}

TEST(Graph, RowOffsetsMonotone) {
  const auto g = make_rmat_graph(8, 8.0, 3);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(g.row_offsets[v], g.row_offsets[v + 1]);
  }
  EXPECT_EQ(g.row_offsets.back(), g.num_edges());
}

TEST(Graph, UniformGraphEdgeCount) {
  const auto g = make_uniform_graph(1000, 4.0, 9);
  EXPECT_EQ(g.num_edges(), 4000u);
  for (const auto c : g.column_indices) EXPECT_LT(c, 1000u);
}

TEST(Graph, RmatIsSkewed) {
  const auto rmat = make_rmat_graph(12, 8.0, 5);
  const auto uniform = make_uniform_graph(1u << 12, 8.0, 5);
  auto max_degree = [](const CsrGraph& g) {
    std::uint32_t best = 0;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      best = std::max(best, g.degree(static_cast<std::uint32_t>(v)));
    }
    return best;
  };
  // Power-law degrees: the RMAT hub should far exceed the uniform max.
  EXPECT_GT(max_degree(rmat), 2 * max_degree(uniform));
}

TEST(Graph, SpmvMatchesDense) {
  const auto g = tiny_chain();
  std::vector<float> x{1.0F, 2.0F, 3.0F, 4.0F};
  const auto y = spmv(g, x);
  // Row 0 edges: ->1 and ->2 with weights w0, w1.
  const float w01 = g.edge_weights[g.row_offsets[0]];
  const float w02 = g.edge_weights[g.row_offsets[0] + 1];
  EXPECT_FLOAT_EQ(y[0], w01 * x[1] + w02 * x[2]);
  EXPECT_FLOAT_EQ(y[3], 0.0F);
}

TEST(Graph, PagerankSumsToOne) {
  const auto g = make_rmat_graph(8, 6.0, 13);
  const auto rank = pagerank(g, 20, 0.85F);
  const double sum = std::accumulate(rank.begin(), rank.end(), 0.0);
  // Dangling vertices leak mass; sum stays in (0, 1].
  EXPECT_LE(sum, 1.0 + 1e-3);
  EXPECT_GT(sum, 0.1);
  for (const auto r : rank) EXPECT_GE(r, 0.0F);
}

TEST(Graph, PagerankEmptyGraph) {
  EXPECT_TRUE(pagerank(CsrGraph{}, 5, 0.85F).empty());
}

TEST(Graph, GeneratorsDeterministic) {
  const auto a = make_rmat_graph(8, 4.0, 21);
  const auto b = make_rmat_graph(8, 4.0, 21);
  EXPECT_EQ(a.column_indices, b.column_indices);
  EXPECT_EQ(a.edge_weights, b.edge_weights);
}

}  // namespace
}  // namespace icsc::core
