// Privacy accountant: tracks cumulative (epsilon, delta) spend per user.
//
// The longitudinal attack exists because one-time geo-IND releases compose:
// by the basic composition theorem, k releases at (eps, delta) each cost
// (k*eps, k*delta) in total, and the advanced composition theorem (Dwork &
// Roth, Thm. 3.20) still grows without bound as sqrt(k). This module makes
// that decay measurable: the edge device (or an auditor) can register every
// release and read off the victim's remaining protection level -- the
// quantitative version of the paper's Section III argument. Permanent
// releases (the n-fold obfuscation table) are registered ONCE; replaying a
// recorded output is post-processing and costs nothing.
#pragma once

#include <cstdint>
#include <cstddef>
#include <unordered_map>

namespace privlocad::lppm {

/// One privacy charge: a mechanism invocation at (epsilon, delta).
struct PrivacyCharge {
  double epsilon;
  double delta;
};

/// Cumulative privacy cost under two composition analyses.
struct PrivacySpend {
  /// Basic composition: sum of epsilons, sum of deltas.
  double basic_epsilon = 0.0;
  double basic_delta = 0.0;

  /// Advanced composition at slack delta': for k releases of eps each,
  /// eps_total = eps * sqrt(2k ln(1/delta')) + k * eps * (e^eps - 1).
  /// Only meaningful for homogeneous charges; heterogeneous charges are
  /// folded via their epsilon root-mean-square (a standard upper bound).
  double advanced_epsilon = 0.0;
  double advanced_delta = 0.0;  ///< sum of deltas + the slack delta'

  std::size_t releases = 0;
};

class PrivacyAccountant {
 public:
  /// `advanced_slack` is the delta' the advanced composition analysis may
  /// additionally burn; must be in (0, 1).
  explicit PrivacyAccountant(double advanced_slack = 1e-6);

  /// Registers one release for `user_id`.
  void record(std::uint64_t user_id, PrivacyCharge charge);

  /// Current spend for a user; all-zero spend for unknown users.
  PrivacySpend spend_for(std::uint64_t user_id) const;

  std::size_t tracked_users() const { return ledgers_.size(); }

 private:
  struct Ledger {
    double eps_sum = 0.0;
    double eps_sq_sum = 0.0;  // for the heterogeneous advanced bound
    double delta_sum = 0.0;
    std::size_t releases = 0;
  };

  double advanced_slack_;
  std::unordered_map<std::uint64_t, Ledger> ledgers_;
};

}  // namespace privlocad::lppm
