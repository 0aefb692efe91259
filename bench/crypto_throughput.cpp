// Crypto fast-path throughput: the 64-bit limb core vs. the retired
// 32-bit core, the T-table AES kernel vs. the retired byte-wise one, plus
// the batch-GCD scaling curve.
//
// Four measurements drive the §5.3 / deployment / scan hot paths:
//  - keygen:   2048-bit RSA key generation (the deployment wall-clock
//              driver — windowed Montgomery + packed sieve vs. the old
//              ladder + per-prime trial division),
//  - modexp:   2048-bit modular exponentiation (the secure-channel and
//              signature primitive),
//  - aes_cbc:  AES-128-CBC encrypt + decrypt of one buffer (every secured
//              MSG chunk of an address-space traversal), best of
//              interleaved repetitions per kernel,
//  - batchgcd: shared-prime sweep time vs. modulus count (product +
//              remainder trees on 512-bit moduli), checked for clearly
//              sub-quadratic growth — the property that makes a 100k-host
//              corpus feasible where pairwise GCD is O(n²).
// Both cores consume the same Rng streams, so the bench also *asserts*
// the determinism invariant: old and new generate bit-identical keys (and
// both AES kernels identical ciphertext).
// Results are emitted to BENCH_crypto.json for trend tracking.
//
//   ./build/crypto_throughput [--quick] [--json PATH] [max_moduli]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/batch_gcd.hpp"
#include "crypto/rsa.hpp"
#include "legacy_aes_bytewise.hpp"
#include "legacy_bignum32.hpp"
#include "report/report.hpp"
#include "obs/log.hpp"

using namespace opcua_study;

namespace {

constexpr std::uint64_t kSeed = 20200209;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

Bignum new_from_legacy(const legacy32::Bignum& v) { return Bignum::from_bytes_be(v.to_bytes_be()); }

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_crypto.json";
  std::size_t max_moduli = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      max_moduli = static_cast<std::size_t>(std::atol(argv[i]));
    }
  }

  bool all_equal = true;

  // ---- keygen: 2048-bit keys, same seeds through both cores -------------
  const int keygen_count = quick ? 1 : 3;
  obs::logf(obs::LogLevel::info, "[bench] keygen: %d x 2048-bit on the 64-bit core...", keygen_count);
  std::vector<RsaKeyPair> new_keys;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < keygen_count; ++i) {
    Rng rng(kSeed + static_cast<std::uint64_t>(i));
    new_keys.push_back(rsa_generate(rng, 2048, 12));
  }
  const double keygen_new_s = seconds_since(start) / keygen_count;

  obs::logf(obs::LogLevel::info, "[bench] keygen: %d x 2048-bit on the legacy 32-bit core...",
               keygen_count);
  std::vector<legacy32::KeyPublic> old_keys;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < keygen_count; ++i) {
    Rng rng(kSeed + static_cast<std::uint64_t>(i));
    old_keys.push_back(legacy32::generate_key(rng, 2048, 12));
  }
  const double keygen_old_s = seconds_since(start) / keygen_count;
  for (int i = 0; i < keygen_count; ++i) {
    all_equal &= new_keys[static_cast<std::size_t>(i)].pub.n ==
                 new_from_legacy(old_keys[static_cast<std::size_t>(i)].n);
  }
  const double keygen_ratio = keygen_old_s / std::max(keygen_new_s, 1e-12);

  // ---- modexp: 2048-bit base^exp mod n ----------------------------------
  Rng mx_rng(kSeed ^ 0x6d78);  // "mx"
  legacy32::Bignum old_mod = legacy32::Bignum::random_bits(mx_rng, 2048);
  old_mod.set_bit(2047);
  old_mod.set_bit(0);
  legacy32::Bignum old_base = legacy32::Bignum::random_bits(mx_rng, 2048);
  legacy32::Bignum old_exp = legacy32::Bignum::random_bits(mx_rng, 2048);
  const Bignum new_mod = new_from_legacy(old_mod);
  const Bignum new_base = new_from_legacy(old_base);
  const Bignum new_exp = new_from_legacy(old_exp);

  const int modexp_new_reps = quick ? 12 : 60;
  const int modexp_old_reps = quick ? 3 : 12;
  obs::logf(obs::LogLevel::info, "[bench] modexp: %d reps new / %d reps legacy...", modexp_new_reps,
               modexp_old_reps);
  Bignum new_result;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < modexp_new_reps; ++i) {
    new_result = Bignum::mod_pow(new_base, new_exp, new_mod);
  }
  const double modexp_new_s = seconds_since(start) / modexp_new_reps;
  legacy32::Bignum old_result;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < modexp_old_reps; ++i) {
    old_result = legacy32::Montgomery(old_mod).pow(old_base, old_exp);
  }
  const double modexp_old_s = seconds_since(start) / modexp_old_reps;
  all_equal &= new_result == new_from_legacy(old_result);
  const double modexp_ratio = modexp_old_s / std::max(modexp_new_s, 1e-12);

  // ---- AES-128-CBC: T-table kernel vs. the byte-wise one -----------------
  const std::size_t aes_bytes = quick ? std::size_t{1} << 20 : std::size_t{8} << 20;
  const int aes_reps = quick ? 5 : 7;
  Rng aes_rng(kSeed ^ 0x6165);  // "ae"
  const Bytes aes_key = aes_rng.bytes(16);
  const Bytes aes_iv = aes_rng.bytes(16);
  const Bytes aes_plain = aes_rng.bytes(aes_bytes);
  obs::logf(obs::LogLevel::info, "[bench] AES-128-CBC: %d interleaved reps over %zu bytes...",
            aes_reps, aes_bytes);
  double aes_new_s = 1e30;
  double aes_old_s = 1e30;
  bool aes_identical = true;
  for (int rep = 0; rep < aes_reps; ++rep) {
    start = std::chrono::steady_clock::now();
    const Bytes new_cipher = aes_cbc_encrypt(aes_key, aes_iv, aes_plain);
    const Bytes new_plain = aes_cbc_decrypt(aes_key, aes_iv, new_cipher);
    aes_new_s = std::min(aes_new_s, seconds_since(start));
    start = std::chrono::steady_clock::now();
    const Bytes old_cipher = legacy_aes::cbc_encrypt(aes_key, aes_iv, aes_plain);
    const Bytes old_plain = legacy_aes::cbc_decrypt(aes_key, aes_iv, old_cipher);
    aes_old_s = std::min(aes_old_s, seconds_since(start));
    aes_identical &= new_cipher == old_cipher && new_plain == aes_plain && old_plain == aes_plain;
  }
  all_equal &= aes_identical;
  const double aes_ratio = aes_old_s / std::max(aes_new_s, 1e-12);
  // Megabytes through the cipher per second, encrypt and decrypt counted.
  const double aes_new_mb_s = 2e-6 * static_cast<double>(aes_bytes) / std::max(aes_new_s, 1e-12);
  const double aes_old_mb_s = 2e-6 * static_cast<double>(aes_bytes) / std::max(aes_old_s, 1e-12);

  // ---- batch-GCD scaling: 512-bit moduli --------------------------------
  std::vector<std::size_t> counts = quick ? std::vector<std::size_t>{250, 1000, 4000}
                                          : std::vector<std::size_t>{1000, 10000, 100000};
  if (max_moduli) {
    while (counts.size() > 1 && counts.back() > max_moduli) counts.pop_back();
    if (counts.back() != max_moduli && max_moduli > counts.front()) counts.push_back(max_moduli);
  }
  Rng bg_rng(kSeed ^ 0x6267);  // "bg"
  std::vector<Bignum> moduli;
  moduli.reserve(counts.back());
  while (moduli.size() < counts.back()) {
    Bignum m = Bignum::random_bits(bg_rng, 512);
    m.set_bit(511);
    m.set_bit(0);
    moduli.push_back(std::move(m));
  }
  struct ScalePoint {
    std::size_t count;
    double seconds;
  };
  std::vector<ScalePoint> scale;
  for (const std::size_t count : counts) {
    obs::logf(obs::LogLevel::info, "[bench] batch-GCD over %zu x 512-bit moduli...", count);
    const std::vector<Bignum> slice(moduli.begin(),
                                    moduli.begin() + static_cast<std::ptrdiff_t>(count));
    start = std::chrono::steady_clock::now();
    const BatchGcdResult result = batch_gcd(slice);
    scale.push_back({count, seconds_since(start)});
    (void)result;
  }
  // Legacy tree at the smallest count only (it pays quadratic divmod on
  // every node and would dominate the bench at the larger sizes).
  obs::logf(obs::LogLevel::info, "[bench] legacy batch-GCD over %zu moduli...", counts.front());
  std::vector<legacy32::Bignum> old_moduli;
  {
    Rng rng(kSeed ^ 0x6267);
    for (std::size_t i = 0; i < counts.front(); ++i) {
      legacy32::Bignum m = legacy32::Bignum::random_bits(rng, 512);
      m.set_bit(511);
      m.set_bit(0);
      old_moduli.push_back(std::move(m));
    }
  }
  start = std::chrono::steady_clock::now();
  const std::vector<legacy32::Bignum> old_shared = legacy32::batch_gcd(old_moduli);
  const double batch_old_s = seconds_since(start);
  const double batch_ratio = batch_old_s / std::max(scale.front().seconds, 1e-12);
  // Same inputs → the shared/not-shared verdicts must agree bit for bit.
  {
    const std::vector<Bignum> slice(moduli.begin(),
                                    moduli.begin() + static_cast<std::ptrdiff_t>(counts.front()));
    const BatchGcdResult again = batch_gcd(slice, 1);
    for (std::size_t i = 0; i < counts.front(); ++i) {
      all_equal &= again.shared_factor[i] == new_from_legacy(old_shared[i]);
    }
  }
  // Empirical scaling exponent: t ~ count^e between the curve's endpoints.
  const double growth_exponent =
      std::log(scale.back().seconds / std::max(scale.front().seconds, 1e-12)) /
      std::log(static_cast<double>(scale.back().count) / static_cast<double>(scale.front().count));

  // ---- report -----------------------------------------------------------
  std::puts("Crypto fast path (64-bit limb core and T-table AES vs. their legacy kernels)\n");
  TextTable table;
  table.set_header({"primitive", "new", "old", "speedup"});
  table.add_row({"2048-bit keygen", fmt_double(1.0 / keygen_new_s, 2) + " keys/s",
                 fmt_double(1.0 / keygen_old_s, 2) + " keys/s", fmt_double(keygen_ratio, 1) + "x"});
  table.add_row({"2048-bit modexp", fmt_double(1.0 / modexp_new_s, 1) + " ops/s",
                 fmt_double(1.0 / modexp_old_s, 1) + " ops/s", fmt_double(modexp_ratio, 1) + "x"});
  table.add_row({"AES-128-CBC enc+dec", fmt_double(aes_new_mb_s, 1) + " MB/s",
                 fmt_double(aes_old_mb_s, 1) + " MB/s", fmt_double(aes_ratio, 1) + "x"});
  table.add_row({"batch-GCD (" + fmt_int(static_cast<long>(counts.front())) + " moduli)",
                 fmt_double(scale.front().seconds, 3) + " s", fmt_double(batch_old_s, 3) + " s",
                 fmt_double(batch_ratio, 1) + "x"});
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nBatch-GCD scaling (512-bit moduli)");
  TextTable curve;
  curve.set_header({"moduli", "seconds", "us/modulus"});
  for (const auto& point : scale) {
    curve.add_row({fmt_int(static_cast<long>(point.count)), fmt_double(point.seconds, 3),
                   fmt_double(1e6 * point.seconds / static_cast<double>(point.count), 1)});
  }
  std::fputs(curve.str().c_str(), stdout);

  const std::vector<ComparisonRow> rows = {
      {"old and new cores generate identical keys/results", "equal",
       all_equal ? "equal" : "MISMATCH", all_equal},
      {"2048-bit keygen speedup", ">= 5x", fmt_double(keygen_ratio, 1) + "x", keygen_ratio >= 5.0},
      {"2048-bit modexp speedup", ">= 4x", fmt_double(modexp_ratio, 1) + "x", modexp_ratio >= 4.0},
      {"AES-CBC old and new kernels produce identical ciphertext", "equal",
       aes_identical ? "equal" : "MISMATCH", aes_identical},
      {"AES-128-CBC speedup (encrypt + decrypt)", ">= 4x", fmt_double(aes_ratio, 1) + "x",
       aes_ratio >= 4.0},
      // Karatsuba-backed trees give t ~ n^1.3..1.5 (log factors included);
      // pairwise GCD is exactly 2. 1.6 keeps the check robust to memory
      // pressure on the 100k point while still pinning sub-quadratic.
      {"batch-GCD scaling exponent (1 = linear, 2 = quadratic)", "< 1.6",
       fmt_double(growth_exponent, 2), growth_exponent < 1.6},
  };
  std::fputs(render_comparison("Crypto fast path vs. legacy core", rows).c_str(), stdout);

  // ---- machine-readable trajectory --------------------------------------
  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n"
         << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
         << "  \"keygen_2048\": {\"new_keys_per_sec\": " << 1.0 / keygen_new_s
         << ", \"old_keys_per_sec\": " << 1.0 / keygen_old_s << ", \"speedup\": " << keygen_ratio
         << "},\n"
         << "  \"modexp_2048\": {\"new_ops_per_sec\": " << 1.0 / modexp_new_s
         << ", \"old_ops_per_sec\": " << 1.0 / modexp_old_s << ", \"speedup\": " << modexp_ratio
         << "},\n"
         << "  \"aes_cbc\": {\"key_bits\": 128, \"bytes\": " << aes_bytes
         << ", \"new_mb_per_sec\": " << aes_new_mb_s << ", \"old_mb_per_sec\": " << aes_old_mb_s
         << ", \"speedup\": " << aes_ratio
         << ", \"identical_ciphertext\": " << (aes_identical ? "true" : "false") << "},\n"
         << "  \"batch_gcd\": {\"modulus_bits\": 512, \"points\": [";
    for (std::size_t i = 0; i < scale.size(); ++i) {
      json << (i ? ", " : "") << "{\"count\": " << scale[i].count
           << ", \"seconds\": " << scale[i].seconds << "}";
    }
    json << "], \"old_seconds_at_" << counts.front() << "\": " << batch_old_s
         << ", \"speedup_at_" << counts.front() << "\": " << batch_ratio
         << ", \"scaling_exponent\": " << growth_exponent << "},\n"
         << "  \"old_new_results_identical\": " << (all_equal ? "true" : "false") << "\n"
         << "}\n";
    obs::logf(obs::LogLevel::info, "[bench] wrote %s", json_path.c_str());
  }

  // Correctness gates the exit code; the speedup targets are reported
  // above but depend on the host, so they do not fail CI smoke runs.
  return all_equal ? 0 : 1;
}
