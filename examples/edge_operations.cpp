// Edge operations walkthrough: the deployment-facing features.
//
//   1. serve traffic and read the telemetry counters;
//   2. save a snapshot of the device state to disk, "restart" into a
//      device with a different seed, and open it -- proving the permanent
//      candidates and per-user privacy levels survive (regenerating the
//      candidates would be a privacy leak);
//   3. per-user personalized privacy levels;
//   4. the privacy accountant's view of a protected user vs. what a
//      one-time geo-IND user would have spent.
//
// Exits non-zero when the restart check fails, so it doubles as a test.
//
// Build & run:  ./build/examples/edge_operations
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/edge_device.hpp"

int main() {
  using namespace privlocad;

  core::EdgeConfig config;
  config.top_params.radius_m = 500.0;
  config.top_params.epsilon = 1.0;
  config.top_params.delta = 0.01;
  config.top_params.n = 10;
  config.management.window_seconds = 30 * trace::kSecondsPerDay;

  // ---- 1. serve traffic ----------------------------------------------
  core::EdgeDevice device(config.with_seed(2024));
  const geo::Point alice_home{1200.0, -300.0};
  trace::UserTrace history;
  history.user_id = 1;  // alice
  for (int i = 0; i < 60; ++i) {
    history.check_ins.push_back(
        {alice_home, trace::kStudyStart + i * 3600});
  }
  device.import_history(1, history);

  // Bob wants stricter privacy before his first report.
  lppm::BoundedGeoIndParams strict = config.top_params;
  strict.epsilon = 0.5;
  device.set_user_privacy(2, strict);

  for (int i = 0; i < 200; ++i) {
    const trace::Timestamp t =
        trace::kStudyStart + 40 * trace::kSecondsPerDay + i * 600;
    device.serve(1, alice_home, t);
    device.serve(2, {i * 400.0, -i * 250.0}, t);  // bob roams
  }
  std::printf("--- telemetry after 400 requests ---\n%s\n",
              device.telemetry().to_string().c_str());

  // ---- 2. snapshot / restart / open ---------------------------------
  const std::string path =
      (std::filesystem::temp_directory_path() / "edge_operations.snap")
          .string();
  if (const util::Status saved = device.save_snapshot(path); !saved.ok()) {
    std::fprintf(stderr, "save_snapshot failed: %s\n",
                 saved.to_string().c_str());
    return 1;
  }
  std::printf("persisted: %ju-byte snapshot\n\n",
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

  core::EdgeDevice restarted(config.with_seed(/*different seed=*/777));
  const util::Status opened = restarted.open_snapshot(path);
  std::filesystem::remove(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "open_snapshot failed: %s\n",
                 opened.to_string().c_str());
    return 1;
  }
  const core::ServeResult served = restarted.serve(
      1, alice_home, trace::kStudyStart + 100 * trace::kSecondsPerDay);
  if (!served.released()) {
    std::fprintf(stderr, "replay after restart was not released: %s\n",
                 served.status.to_string().c_str());
    return 1;
  }
  const core::ReportedLocation& replay = served.reported;
  std::printf("after restart, alice's report still comes from the frozen "
              "set: (%.1f, %.1f) [%s]\n",
              replay.location.x, replay.location.y,
              replay.kind == core::ReportKind::kTopLocation ? "top"
                                                            : "nomadic");
  std::printf("bob's personalized level after restart: eps = %.2f\n\n",
              restarted.user_privacy(2).epsilon);
  // A top-location release with no candidate set drawn since the restart
  // is a replay of the frozen set.
  if (replay.kind != core::ReportKind::kTopLocation ||
      restarted.telemetry().tables_generated != 0 ||
      restarted.user_privacy(2).epsilon != strict.epsilon) {
    std::fprintf(stderr, "restart check FAILED: the snapshot did not "
                         "preserve the frozen set or bob's privacy level\n");
    return 1;
  }

  // ---- 3 + 4. privacy accounting ---------------------------------------
  const lppm::PrivacySpend alice = device.accountant().spend_for(1);
  const lppm::PrivacySpend bob = device.accountant().spend_for(2);
  std::printf("--- privacy ledger ---\n");
  std::printf("alice (routine, protected): %zu release(s), eps = %.2f\n",
              alice.releases, alice.basic_epsilon);
  std::printf("bob   (roaming, one-time) : %zu releases, eps = %.1f "
              "(every nomadic report composes!)\n",
              bob.releases, bob.basic_epsilon);
  std::printf("\nalice reported from home 200 times but spent privacy ONCE "
              "-- that asymmetry is the defence.\n");
  std::printf("bob's personalized level for future top locations: eps = "
              "%.2f\n",
              device.user_privacy(2).epsilon);

  // ---- 5. risk-driven policy ------------------------------------------
  const core::RiskAssessment alice_risk = device.assess_user_risk(1);
  std::printf("\n--- risk assessment (alice) ---\n");
  std::printf("level: %s (score %.2f; entropy %.2f, exposure %.2f, "
              "budget %.2f)\n",
              core::to_string(alice_risk.level).c_str(), alice_risk.score,
              alice_risk.entropy_signal, alice_risk.exposure_signal,
              alice_risk.budget_signal);
  std::printf("recommendation: %s\n", alice_risk.recommendation.c_str());
  const lppm::BoundedGeoIndParams next =
      core::recommended_params(alice_risk, device.user_privacy(1));
  std::printf("policy for alice's future tables: eps %.2f -> %.2f, "
              "n %zu -> %zu\n",
              device.user_privacy(1).epsilon, next.epsilon,
              device.user_privacy(1).n, next.n);
  device.set_user_privacy(1, next);
  return 0;
}
