// Compressed-sparse-row graphs and generators for the Sec. III SPARTA
// experiments (graph-processing kernels: BFS, SpMV, PageRank).
//
// SPARTA was "primarily tested on graph processing kernels, to demonstrate
// its ability to generate efficient accelerators for irregular applications".
// RMAT graphs give the skewed degree distributions that make those kernels
// irregular; uniform graphs are the easy baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace icsc::core {

/// Directed graph in CSR form. Vertices are [0, num_vertices).
struct CsrGraph {
  std::vector<std::uint32_t> row_offsets;  // size num_vertices + 1
  std::vector<std::uint32_t> column_indices;
  std::vector<float> edge_weights;  // parallel to column_indices

  std::size_t num_vertices() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
  std::size_t num_edges() const { return column_indices.size(); }
  std::uint32_t degree(std::uint32_t v) const {
    return row_offsets[v + 1] - row_offsets[v];
  }
};

/// Builds a CSR graph from an edge list (duplicates kept, self-loops kept).
///
/// Error contract: throws icsc::core::Error when any edge endpoint is not
/// in [0, num_vertices) -- out-of-range vertices would otherwise corrupt
/// the row-offset table and send every downstream kernel out of bounds.
CsrGraph csr_from_edges(std::size_t num_vertices,
                        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
                        Rng* weight_rng = nullptr);

/// Erdos-Renyi-style uniform random graph with the given average degree.
CsrGraph make_uniform_graph(std::size_t num_vertices, double avg_degree,
                            std::uint64_t seed);

/// RMAT generator (Chakrabarti et al.) with the classic (0.57, 0.19, 0.19,
/// 0.05) partition probabilities: power-law degrees, community structure.
CsrGraph make_rmat_graph(int scale, double avg_degree, std::uint64_t seed);

/// Reference kernels the accelerators are validated against.
/// y = A x over the weighted adjacency (SpMV). Throws icsc::core::Error
/// when x.size() != g.num_vertices().
std::vector<float> spmv(const CsrGraph& g, const std::vector<float>& x);

/// PageRank with damping d, fixed iteration count.
std::vector<float> pagerank(const CsrGraph& g, int iterations, float damping);

}  // namespace icsc::core
