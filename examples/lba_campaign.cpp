// LBA campaign simulation: the workload the paper's introduction
// motivates. A city of synthetic users lives through three months of ad
// requests behind an Edge-PrivLocAd deployment; advertisers run
// radius-targeting campaigns on a Tencent-style platform. The example
// reports the advertiser-facing picture: reach, relevance (efficacy), and
// how much irrelevant traffic the edge filter absorbed.
//
// Build & run:  ./build/examples/lba_campaign [users]
#include <cstdio>
#include <limits>

#include "adnet/advertiser.hpp"
#include "core/system.hpp"
#include "trace/synthetic.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace privlocad;

  // The optional count must be a whole positive integer; anything else
  // ("abc", "-1", "12x") exits 2 naming the argument.
  std::size_t user_count = 50;
  if (argc > 1) {
    const auto parsed = util::parse_int_in(
        argv[1], 1, std::numeric_limits<long long>::max());
    if (!parsed) {
      std::fprintf(stderr,
                   "lba_campaign: users needs a positive integer, got '%s'\n",
                   argv[1]);
      return 2;
    }
    user_count = static_cast<std::size_t>(*parsed);
  }

  // --- deploy the system --------------------------------------------
  core::EdgeConfig config;
  config.top_params.radius_m = 500.0;
  config.top_params.epsilon = 1.0;
  config.top_params.delta = 0.01;
  config.top_params.n = 10;
  config.targeting_radius_m = 5000.0;

  rng::Engine engine(99);
  core::EdgePrivLocAd system(
      config.with_seed(17),
      adnet::generate_campaigns(engine, adnet::table1_presets()[3], 1000,
                                40000.0));

  // --- populate the city ---------------------------------------------
  trace::SyntheticConfig synth;
  synth.min_check_ins = 200;
  synth.max_check_ins = 600;
  const rng::Engine parent(7);
  const auto users = trace::generate_population(parent, synth, user_count);

  // First year becomes on-boarding history; the rest is served live.
  const trace::Timestamp split =
      trace::kStudyStart + 365 * trace::kSecondsPerDay;

  std::size_t live_requests = 0, top_reports = 0;
  std::size_t matched_total = 0, delivered_total = 0;
  for (const trace::SyntheticUser& user : users) {
    system.edge().import_history(
        user.trace.user_id,
        trace::slice_by_time(user.trace, trace::kStudyStart, split));
    for (const trace::CheckIn& c : user.trace.check_ins) {
      if (c.time < split) continue;
      const core::ServedAds served =
          system.on_lba_request(user.trace.user_id, c.position, c.time);
      ++live_requests;
      if (served.reported.kind == core::ReportKind::kTopLocation) {
        ++top_reports;
      }
      matched_total += served.matched_count;
      delivered_total += served.delivered.size();
    }
  }

  // --- the advertiser-facing picture ----------------------------------
  std::printf("campaign simulation over %zu users, %zu live requests\n\n",
              users.size(), live_requests);
  std::printf("requests served from permanent top-location candidates: %5.1f%%\n",
              100.0 * static_cast<double>(top_reports) /
                  static_cast<double>(live_requests));
  std::printf("ads matched by the network (per request)             : %5.2f\n",
              static_cast<double>(matched_total) /
                  static_cast<double>(live_requests));
  std::printf("ads delivered after edge relevance filtering          : %5.2f\n",
              static_cast<double>(delivered_total) /
                  static_cast<double>(live_requests));
  std::printf("bandwidth saved by the edge filter                    : %5.1f%%\n",
              matched_total == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(delivered_total) /
                                       static_cast<double>(matched_total)));
  std::printf("\nthe ad network observed %zu location reports, none of them "
              "the users' raw locations.\n",
              system.network().bid_log().total_requests());
  return 0;
}
