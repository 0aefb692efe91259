// §5.3 "Secrets Not Meant to be Shared": batch-GCD shared-prime scan over
// all collected RSA moduli (the paper found no weak-randomness evidence),
// plus a positive control with injected shared primes to show the scanner
// would have caught them.
#include <cstdio>

#include "bench_common.hpp"
#include "crypto/batch_gcd.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  AnalysisOptions options;
  options.threads = 0;
  options.shared_primes = true;
  const StudyAnalysis analysis = bench::run_analysis(options);
  const SharedPrimeStats& stats = analysis.shared_primes;
  const double elapsed = analysis.shared_prime_seconds;

  std::puts("Section 5.3: shared-prime scan over the collected certificate corpus\n");
  std::printf("distinct RSA moduli checked : %zu\n", stats.distinct_moduli);
  std::printf("moduli sharing a prime      : %zu\n", stats.moduli_with_shared_prime);
  std::printf("batch-GCD wall time         : %.2f s (product+remainder tree)\n\n", elapsed);

  // Positive control: inject a weak-randomness population and re-run.
  Rng rng(424242);
  std::vector<Bignum> weak;
  const Bignum shared_prime = Bignum::generate_prime(rng, 256, 8);
  for (int i = 0; i < 32; ++i) {
    const Bignum q = Bignum::generate_prime(rng, 256, 8);
    weak.push_back(i % 4 == 0 ? shared_prime * q
                              : Bignum::generate_prime(rng, 256, 8) * q);
  }
  const auto control = batch_gcd(weak);
  std::printf("positive control: injected 8/32 moduli sharing one prime -> detected %zu\n\n",
              control.affected());

  std::vector<ComparisonRow> rows = {
      compare_num("moduli with shared primes (paper: none found)", 0,
                  static_cast<double>(stats.moduli_with_shared_prime), 0),
      compare_num("positive control detections", 8, static_cast<double>(control.affected()), 0),
  };
  std::fputs(render_comparison("Section 5.3 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
