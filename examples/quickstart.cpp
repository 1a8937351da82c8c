// Quickstart: the paper's running example end to end.
//
// Builds the Figure 1 graphs, computes their exact GED (Example 1), their
// Graph Branch Distance (Example 2), the conditional probabilities
// Lambda1(tau, phi) of the probabilistic model (Example 7), and finally the
// posterior Pr[GED <= tau_hat | GBD] that drives Algorithm 1.

#include <cstdio>

#include "baselines/astar_ged.h"
#include "core/branch.h"
#include "core/lambda1.h"
#include "graph/graph.h"
#include "graph/label_dict.h"

using namespace gbda;

int main() {
  // --- Build G1 and G2 of Figure 1 -----------------------------------------
  LabelDict vertex_labels, edge_labels;
  const LabelId A = vertex_labels.Intern("A");
  const LabelId B = vertex_labels.Intern("B");
  const LabelId C = vertex_labels.Intern("C");
  const LabelId x = edge_labels.Intern("x");
  const LabelId y = edge_labels.Intern("y");
  const LabelId z = edge_labels.Intern("z");

  Graph g1;  // v1(A)-v2(C):y, v1-v3(B):y, v2-v3:z
  g1.AddVertex(A);
  g1.AddVertex(C);
  g1.AddVertex(B);
  if (!g1.AddEdge(0, 1, y).ok() || !g1.AddEdge(0, 2, y).ok() ||
      !g1.AddEdge(1, 2, z).ok()) {
    std::fprintf(stderr, "building G1 failed\n");
    return 1;
  }

  Graph g2;  // u1(B)-u3(A):x, u1-u4(C):z, u2(A)-u4:y
  g2.AddVertex(B);
  g2.AddVertex(A);
  g2.AddVertex(A);
  g2.AddVertex(C);
  if (!g2.AddEdge(0, 2, x).ok() || !g2.AddEdge(0, 3, z).ok() ||
      !g2.AddEdge(1, 3, y).ok()) {
    std::fprintf(stderr, "building G2 failed\n");
    return 1;
  }

  // --- Example 1: exact GED via A* ------------------------------------------
  Result<ExactGedResult> exact = ExactGed(g1, g2);
  if (!exact.ok()) {
    std::fprintf(stderr, "A* failed: %s\n", exact.status().ToString().c_str());
    return 1;
  }
  std::printf("Exact GED(G1, G2) = %lld   (paper Example 1: 3)\n",
              static_cast<long long>(exact->distance));

  // --- Example 2: Graph Branch Distance --------------------------------------
  const BranchMultiset b1 = ExtractBranches(g1);
  const BranchMultiset b2 = ExtractBranches(g2);
  std::printf("GBD(G1, G2)      = %zu   (paper Example 2: 3)\n",
              GbdFromBranches(b1, b2));
  std::printf("|B_G1| = %zu, |B_G2| = %zu, |intersection| = %zu\n", b1.size(),
              b2.size(), BranchIntersectionSize(b1, b2));

  // --- Example 7: the probabilistic model ------------------------------------
  // |V'1| = max(|V1|, |V2|) = 4, |L_V| = 3, |L_E| = 3.
  const Lambda1Calculator calc(MakeModelParams(4, 3, 3), 4);
  const Span<double> lambda1 = calc.Column(/*phi=*/3);
  std::printf("Lambda1(tau=2, phi=3) = %.4f   (paper Example 7: 0.5113)\n",
              lambda1[2]);
  std::printf("Lambda1(tau=3, phi=3) = %.4f   (paper Example 7: 0.5631)\n",
              lambda1[3]);

  // With the paper's assumed ratio Lambda3/Lambda2 = 0.8 (Example 7 assumes
  // this constant since there is no concrete database):
  const double ratio = 0.8;
  double phi_score = 0.0;
  for (int64_t tau = 0; tau <= 3; ++tau) {
    phi_score += lambda1[static_cast<size_t>(tau)] * ratio;
  }
  std::printf("Phi = Pr[GED <= 3 | GBD = 3] = %.4f   (paper: 0.8595)\n",
              phi_score);
  std::printf("Phi >= gamma = 0.8, so G2 joins the search result, as in "
              "Example 7.\n");
  return 0;
}
