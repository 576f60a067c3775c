// Fig. 3: the objective surface h(w) over the weight simplex of the Yelp
// stand-in (r = 3) and the SGLA+ quadratic surrogate h_Theta* fitted from
// r+1 = 4 samples. Prints both surfaces on a grid and the location of each
// minimum — the paper's visual argument that the surrogate's minimizer lands
// next to the true one.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"
#include "core/integration.h"
#include "core/objective.h"
#include "opt/quadratic_model.h"
#include "util/logging.h"

int main() {
  using namespace sgla;
  const std::string dataset = "yelp";
  const core::MultiViewGraph& mvag = bench::GetDataset(dataset);
  const std::vector<la::CsrMatrix>& views = bench::GetViewLaplacians(dataset);
  const int k = mvag.num_clusters();
  SGLA_CHECK(views.size() == 3) << "Fig. 3 needs the r=3 Yelp stand-in";

  const double step = 0.1;
  const int cells = static_cast<int>(1.0 / step) + 1;

  // True objective h on the grid (each cell is an eigensolve).
  core::SpectralObjective objective(&views, k);
  std::vector<double> h_grid;
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j + i < cells; ++j) {
      const double w1 = i * step, w2 = j * step;
      auto value = objective.Evaluate({w1, w2, 1.0 - w1 - w2});
      h_grid.push_back(value.ok() ? value->h : NAN);
    }
  }

  // Surrogate fitted from the paper's r+1 samples.
  std::vector<la::Vector> samples = core::SglaPlusSamples(3);
  la::Vector values;
  for (const la::Vector& w : samples) {
    auto value = objective.Evaluate(w);
    SGLA_CHECK(value.ok());
    values.push_back(value->h);
  }
  auto model = opt::QuadraticModel::Fit(samples, values, 0.05);
  SGLA_CHECK(model.ok());

  std::printf("=== Fig. 3: objective h(w) vs quadratic surrogate on %s "
              "(w3 = 1 - w1 - w2) ===\n\n", dataset.c_str());
  std::printf("%6s %6s %12s %12s\n", "w1", "w2", "h(w)", "h_Theta*(w)");
  double h_best = 1e30, s_best = 1e30;
  double h_w1 = 0, h_w2 = 0, s_w1 = 0, s_w2 = 0;
  size_t idx = 0;
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j + i < cells; ++j, ++idx) {
      const double w1 = i * step, w2 = j * step;
      const double h = h_grid[idx];
      const double s = model->Evaluate({w1, w2, 1.0 - w1 - w2});
      std::printf("%6.2f %6.2f %12.4f %12.4f\n", w1, w2, h, s);
      if (h < h_best) {
        h_best = h;
        h_w1 = w1;
        h_w2 = w2;
      }
      if (s < s_best) {
        s_best = s;
        s_w1 = w1;
        s_w2 = w2;
      }
    }
  }
  const double dist = std::hypot(h_w1 - s_w1, h_w2 - s_w2);
  std::printf("\ntrue minimum:      (w1=%.2f, w2=%.2f)  h=%.4f\n", h_w1, h_w2, h_best);
  std::printf("surrogate minimum: (w1=%.2f, w2=%.2f)  h_Theta*=%.4f\n", s_w1, s_w2,
              s_best);
  std::printf("grid distance between minima: %.3f (paper: 'close locations "
              "validate the approximation')\n", dist);
  return 0;
}
