#include "core/graph.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"

namespace icsc::core {

CsrGraph csr_from_edges(
    std::size_t num_vertices,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
    Rng* weight_rng) {
  for (const auto& [src, dst] : edges) {
    if (src >= num_vertices || dst >= num_vertices) {
      throw Error("core::csr_from_edges", "edge endpoint out of range",
                  "(" + std::to_string(src) + ", " + std::to_string(dst) +
                      ") with " + std::to_string(num_vertices) + " vertices");
    }
  }
  std::sort(edges.begin(), edges.end());
  CsrGraph g;
  g.row_offsets.assign(num_vertices + 1, 0);
  for (const auto& [src, dst] : edges) {
    (void)dst;
    ++g.row_offsets[src + 1];
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    g.row_offsets[v + 1] += g.row_offsets[v];
  }
  g.column_indices.reserve(edges.size());
  g.edge_weights.reserve(edges.size());
  for (const auto& [src, dst] : edges) {
    (void)src;
    g.column_indices.push_back(dst);
    g.edge_weights.push_back(
        weight_rng ? static_cast<float>(weight_rng->uniform(0.1, 1.0)) : 1.0F);
  }
  return g;
}

CsrGraph make_uniform_graph(std::size_t num_vertices, double avg_degree,
                            std::uint64_t seed) {
  Rng rng(seed);
  const auto num_edges =
      static_cast<std::size_t>(avg_degree * static_cast<double>(num_vertices));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(num_edges);
  for (std::size_t i = 0; i < num_edges; ++i) {
    edges.emplace_back(static_cast<std::uint32_t>(rng.below(num_vertices)),
                       static_cast<std::uint32_t>(rng.below(num_vertices)));
  }
  Rng weights = rng.split();
  return csr_from_edges(num_vertices, std::move(edges), &weights);
}

CsrGraph make_rmat_graph(int scale, double avg_degree, std::uint64_t seed) {
  const std::size_t num_vertices = std::size_t{1} << scale;
  const auto num_edges =
      static_cast<std::size_t>(avg_degree * static_cast<double>(num_vertices));
  Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(num_edges);
  constexpr double a = 0.57, b = 0.19, c = 0.19;  // d = 0.05
  for (std::size_t e = 0; e < num_edges; ++e) {
    std::uint32_t src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double p = rng.uniform();
      src <<= 1;
      dst <<= 1;
      if (p < a) {
        // top-left quadrant: neither bit set
      } else if (p < a + b) {
        dst |= 1;
      } else if (p < a + b + c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    edges.emplace_back(src, dst);
  }
  Rng weights = rng.split();
  return csr_from_edges(num_vertices, std::move(edges), &weights);
}

std::vector<float> spmv(const CsrGraph& g, const std::vector<float>& x) {
  if (x.size() != g.num_vertices()) {
    throw Error("core::spmv", "vector length mismatch",
                "got " + std::to_string(x.size()) + ", expected " +
                    std::to_string(g.num_vertices()));
  }
  std::vector<float> y(g.num_vertices(), 0.0F);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    float acc = 0.0F;
    for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
      acc += g.edge_weights[e] * x[g.column_indices[e]];
    }
    y[v] = acc;
  }
  return y;
}

std::vector<float> pagerank(const CsrGraph& g, int iterations, float damping) {
  const std::size_t n = g.num_vertices();
  if (n == 0) return {};
  std::vector<float> rank(n, 1.0F / static_cast<float>(n));
  std::vector<float> next(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), (1.0F - damping) / static_cast<float>(n));
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint32_t deg = g.degree(static_cast<std::uint32_t>(v));
      if (deg == 0) continue;
      const float share = damping * rank[v] / static_cast<float>(deg);
      for (std::uint32_t e = g.row_offsets[v]; e < g.row_offsets[v + 1]; ++e) {
        next[g.column_indices[e]] += share;
      }
    }
    rank.swap(next);
  }
  return rank;
}

}  // namespace icsc::core
