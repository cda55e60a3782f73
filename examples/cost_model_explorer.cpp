// Cost-model explorer: runs a query on the database-resident graph,
// meters the actual block I/O, and compares it against the algebraic
// cost model and the trace-driven calibration — the paper's Section 4/5
// methodology in one program.
//
//   $ ./examples/cost_model_explorer [grid-side]
#include <cstdio>
#include <optional>

#include "core/db_search.h"
#include "costmodel/optimizer_sim.h"
#include "graph/grid_generator.h"
#include "util/parse_number.h"

int main(int argc, char** argv) {
  using namespace atis;

  const std::optional<int> side =
      argc > 1 ? util::ParseNumber<int>(argv[1], 4, 60) : 20;
  if (!side) {
    std::fprintf(stderr, "usage: %s [grid-side in 4..60]\n", argv[0]);
    return 1;
  }
  const int k = *side;

  graph::GridGraphGenerator::Options gopt;
  gopt.k = k;
  gopt.cost_model = graph::GridCostModel::kVariance20;
  auto g = graph::GridGraphGenerator::Generate(gopt);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  if (auto st = store.Load(*g); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  core::DbSearchEngine engine(&store, &pool);

  std::printf("database-resident %dx%d grid: |S|=%zu edge tuples "
              "(%zu blocks), |R|=%zu node tuples (%zu blocks)\n\n",
              k, k, store.num_edges(), store.edge_relation().num_blocks(),
              store.num_nodes(), store.node_relation().num_blocks());

  const auto q_h = graph::GridGraphGenerator::HorizontalQuery(k);
  const auto q_s = graph::GridGraphGenerator::SemiDiagonalQuery(k);
  const auto q_d = graph::GridGraphGenerator::DiagonalQuery(k);

  auto run_h = engine.Dijkstra(q_h.source, q_h.destination);
  auto run_s = engine.Dijkstra(q_s.source, q_s.destination);
  auto run_d = engine.Dijkstra(q_d.source, q_d.destination);
  if (!run_h.ok() || !run_s.ok() || !run_d.ok()) {
    std::fprintf(stderr, "search failed\n");
    return 1;
  }

  std::printf("%-14s %12s %16s %16s\n", "query", "iterations",
              "blocks read", "cost (units)");
  const struct {
    const char* name;
    const core::PathResult* r;
  } rows[] = {{"horizontal", &*run_h},
              {"semi-diagonal", &*run_s},
              {"diagonal", &*run_d}};
  for (const auto& row : rows) {
    std::printf("%-14s %12llu %16llu %16.1f\n", row.name,
                (unsigned long long)row.r->stats.iterations,
                (unsigned long long)row.r->stats.io.blocks_read,
                row.r->stats.cost_units);
  }

  // Trace-driven calibration (the paper's validation method): fit on the
  // horizontal + diagonal runs, predict the semi-diagonal one.
  auto cal = costmodel::CalibrateFromRuns(*run_h, *run_d);
  if (cal.ok()) {
    const double pred =
        cal->Predict(static_cast<double>(run_s->stats.iterations));
    std::printf("\ntrace-driven model: init %.2f + %.4f units/iteration\n",
                cal->init_cost, cal->per_iteration_cost);
    std::printf("semi-diagonal predicted %.1f vs measured %.1f "
                "(%.1f%% error)\n",
                pred, run_s->stats.cost_units,
                100.0 * (pred - run_s->stats.cost_units) /
                    run_s->stats.cost_units);
  }

  // The algebraic model of Section 4 with this graph's parameters.
  costmodel::OptimizerSimulation sim(costmodel::ParamsForGraph(*g));
  const double algebraic =
      sim.Predict(core::Algorithm::kDijkstra,
                  static_cast<double>(run_d->stats.iterations))
          .total();
  std::printf("\nalgebraic model (Table 3 formulas, INGRES-era constants): "
              "diagonal predicted %.1f\n(absolute scale differs from this "
              "engine; orderings agree — see EXPERIMENTS.md)\n",
              algebraic);
  return 0;
}
