// requests.hpp — client request streams for the access simulator.
//
// The paper evaluates with 3000 client requests: each request is one page
// (Section 2: "every access of a client is only one data page") arriving at a
// time the server cannot predict. The paper's delay model assumes every page
// is equally likely (prob 1/n) and arrivals uniform over the cycle; both are
// the defaults here. Zipf popularity and Poisson arrivals are provided as
// extensions (ablation A3 / hybrid experiment A4).
#pragma once

#include <vector>

#include "model/workload.hpp"
#include "util/rng.hpp"

namespace tcsa {

/// One client access: `page` requested at real time `arrival`.
struct Request {
  PageId page = 0;
  double arrival = 0.0;
};

/// Page-popularity models for request generation.
enum class Popularity {
  kUniform,  ///< every page equally likely (paper default)
  kZipf,     ///< Zipf over global page id with parameter theta
};

/// Arrival-process models.
enum class ArrivalProcess {
  kUniformWindow,  ///< arrivals i.i.d. uniform over [0, window) (paper default)
  kPoisson,        ///< Poisson with the given rate, starting at 0
};

/// Request-stream recipe. Window/rate semantics depend on the process.
struct RequestConfig {
  SlotCount count = 3000;                 ///< number of requests (Fig. 4)
  Popularity popularity = Popularity::kUniform;
  double zipf_theta = 0.8;                ///< used when popularity == kZipf
  ArrivalProcess arrivals = ArrivalProcess::kUniformWindow;
  double poisson_rate = 1.0;              ///< requests per slot (kPoisson)
};

/// Generates `config.count` requests over the window [0, window) slots
/// (uniform) or with the configured Poisson rate. Deterministic in `rng`.
std::vector<Request> generate_requests(const Workload& workload, double window,
                                       const RequestConfig& config, Rng& rng);

/// Per-page access weights implied by a popularity model (sums to anything;
/// callers normalise). generate_requests and sim/hybrid draw request pages
/// by them.
std::vector<double> access_weights(const Workload& workload,
                                   Popularity popularity, double zipf_theta);

}  // namespace tcsa
