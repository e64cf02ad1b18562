// Reproduces the Sec. IV accuracy experiments: DNN accuracy on analog IMC
// crossbars under device non-idealities -- programming scheme (the [10]
// program-and-verify study), PCM conductance drift over time, ADC
// resolution -- for both RRAM and PCM devices -- and the fidelity of a
// convolution layer lowered onto crossbar tiles by im2col.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/sampling.hpp"
#include "core/table.hpp"
#include "imc/characterization.hpp"
#include "imc/conv_mapping.hpp"
#include "imc/noise_training.hpp"
#include "imc/pipeline.hpp"
#include "imc/program_verify.hpp"

namespace {

using namespace icsc;
using namespace icsc::imc;

void BM_CrossbarMvm(benchmark::State& state) {
  core::Rng rng(1);
  core::TensorF w({64, 64});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  Crossbar xbar(w, CrossbarConfig{});
  std::vector<float> x(64, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xbar.matvec(x));
  }
}
BENCHMARK(BM_CrossbarMvm);

void print_tables() {
  std::printf("\n=== Device characterisation (model extraction, [9]/[10] style) ===\n");
  core::TextTable ct({"device", "fitted drift nu (true)", "D2D nu spread",
                      "read noise (true)"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    const auto drift = characterize_drift(spec, 200, 12, 3);
    const double noise = characterize_read_noise(spec, 20000, 9);
    ct.add_row({spec.name,
                core::TextTable::num(drift.fitted_nu, 4) + " (" +
                    core::TextTable::num(spec.drift_nu, 4) + ")",
                core::TextTable::num(drift.nu_spread, 4),
                core::TextTable::num(noise, 4) + " (" +
                    core::TextTable::num(spec.read_noise_rel, 4) + ")"});
  }
  std::printf("%s", ct.to_string().c_str());

  std::printf("\n=== Sec. IV: program-and-verify accuracy ([10] study) ===\n");
  core::TextTable pt({"device", "scheme", "mean |G err| (uS)", "mean pulses",
                      "programming energy (nJ/1k cells)"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    for (const auto& [name, scheme] :
         {std::pair{"single pulse", ProgramScheme::kSinglePulse},
          {"4 fixed pulses", ProgramScheme::kFixedPulses},
          {"program-and-verify", ProgramScheme::kVerify}}) {
      ProgramVerifyConfig config;
      config.scheme = scheme;
      const auto stats = measure_programming(spec, config, 1000, 7);
      pt.add_row({spec.name, name,
                  core::TextTable::num(stats.mean_abs_error_us, 2),
                  core::TextTable::num(stats.mean_pulses, 1),
                  core::TextTable::num(stats.energy_pj * 1e-3, 1)});
    }
  }
  std::printf("%s", pt.to_string().c_str());

  std::printf("\n=== DNN accuracy on IMC vs programming scheme ===\n");
  core::TextTable at({"device", "scheme", "software acc", "IMC acc"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    for (const auto& [name, scheme] :
         {std::pair{"single pulse", ProgramScheme::kSinglePulse},
          {"program-and-verify", ProgramScheme::kVerify}}) {
      TileConfig config;
      config.crossbar.device = spec;
      config.crossbar.programming.scheme = scheme;
      const auto point = run_imc_experiment(config, 1.0, 42);
      at.add_row({spec.name, name,
                  core::TextTable::num(100.0 * point.software_accuracy, 1) + "%",
                  core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%"});
    }
  }
  std::printf("%s", at.to_string().c_str());

  std::printf("\n=== Accuracy vs conductance drift (program-and-verify) ===\n");
  core::TextTable dt({"time after programming", "RRAM acc", "PCM acc"});
  for (const auto& [label, seconds] :
       {std::pair{"1 second", 1.0}, {"1 hour", 3600.0}, {"1 day", 86400.0},
        {"1 month", 2.6e6}, {"1 year", 3.15e7}}) {
    std::string row[2];
    int i = 0;
    for (const auto& spec : {rram_spec(), pcm_spec()}) {
      TileConfig config;
      config.crossbar.device = spec;
      config.crossbar.programming.scheme = ProgramScheme::kVerify;
      const auto point = run_imc_experiment(config, seconds, 42);
      row[i++] = core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%";
    }
    dt.add_row({label, row[0], row[1]});
  }
  std::printf("%s", dt.to_string().c_str());

  std::printf("\n=== Noise-aware training vs programming-error level (RRAM, single pulse) ===\n");
  core::TextTable nt({"program error", "standard training on IMC",
                      "noise-aware training on IMC"});
  for (const double sigma : {0.12, 0.2, 0.3}) {
    const auto r = run_noise_training_experiment(sigma, 42);
    nt.add_row({core::TextTable::num(100.0 * sigma, 0) + "%",
                core::TextTable::num(100.0 * r.imc_standard, 1) + "%",
                core::TextTable::num(100.0 * r.imc_noise_aware, 1) + "%"});
  }
  std::printf("%s", nt.to_string().c_str());

  std::printf("\n=== Accuracy vs ADC resolution (RRAM, program-and-verify) ===\n");
  core::TextTable bt({"ADC bits", "IMC acc"});
  for (const int bits : {2, 3, 4, 6, 8, 10}) {
    TileConfig config;
    config.crossbar.adc_bits = bits;
    const auto point = run_imc_experiment(config, 1.0, 42);
    bt.add_row({std::to_string(bits),
                core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%"});
  }
  std::printf("%s", bt.to_string().c_str());
}

// Sec. IV "mapping of the DNN coefficients ... into the various tiles": a
// 3x3 conv layer lowered by im2col onto 16x16 tiles, its analog output
// compared with the exact convolution as the devices drift.
void print_conv_mapping_table() {
  core::Rng rng(11);
  core::TensorF weights({8, 4, 3, 3});
  for (auto& v : weights.data()) v = static_cast<float>(rng.normal(0.0, 0.3));
  TileConfig base;
  base.tile_rows = 16;
  base.tile_cols = 16;
  std::printf("\n=== Conv layer on crossbar tiles: output RMSE vs exact conv "
              "(im2col, [8,4,3,3] -> %zu tiles of 16x16, 12x12 input) ===\n",
              CrossbarConv(weights, base).tile_count());
  core::TextTable t({"time after programming", "RRAM single pulse",
                     "RRAM program-and-verify", "PCM single pulse",
                     "PCM program-and-verify"});
  for (const auto& [label, seconds] :
       {std::pair{"1 second", 1.0}, {"1 day", 86400.0}, {"1 month", 2.6e6},
        {"1 year", 3.15e7}}) {
    std::vector<std::string> row{label};
    for (const auto& spec : {rram_spec(), pcm_spec()}) {
      for (const auto scheme :
           {ProgramScheme::kSinglePulse, ProgramScheme::kVerify}) {
        TileConfig config = base;
        config.crossbar.device = spec;
        config.crossbar.programming.scheme = scheme;
        row.push_back(core::TextTable::num(
            crossbar_conv_rmse(weights, config, 12, 12, seconds, 13), 4));
      }
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());
}

// --early-stop: sequential (CI-driven) device Monte-Carlo instead of the
// fixed-population tables. Each study is run twice over the same
// hash-derived cell streams -- early-stopped and exhaustively -- so the
// exhaustive mean is a true oracle for the early-stopped CI.
void print_early_stop_study() {
  std::printf("\n=== Sequential device Monte-Carlo: CI early stopping vs "
              "exhaustive oracle ===\n");
  const int kBudget = 20000;
  core::sampling::EarlyStopConfig stop;
  stop.enabled = true;
  stop.confidence = 0.95;
  stop.relative_half_width = 0.05;
  stop.min_trials = 64;
  stop.check_every = 16;
  core::sampling::EarlyStopConfig exhaustive;  // disabled: runs the budget

  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    ProgramVerifyConfig pv;
    pv.scheme = ProgramScheme::kVerify;
    const double target = spec.g_min_us + 0.6 * spec.g_range();
    const auto seq = characterize_programming_error_sequential(
        spec, pv, target, kBudget, 11, stop);
    const auto full = characterize_programming_error_sequential(
        spec, pv, target, kBudget, 11, exhaustive);
    const bool inside = seq.estimate.contains(full.estimate.mean);
    std::printf(
        "JSON {\"bench\":\"imc_early_stop\",\"study\":\"program_error\","
        "\"device\":\"%s\",\"budget\":%d,\"samples_run\":%zu,"
        "\"saved_factor\":%s,\"estimate_us\":%s,\"half_width_us\":%s,"
        "\"oracle_mean_us\":%s,\"oracle_inside_ci\":%s}\n",
        spec.name.c_str(), kBudget, seq.samples_run,
        core::json_num(seq.saved_factor(), 2).c_str(),
        core::json_num(seq.estimate.mean, 5).c_str(),
        core::json_num(seq.estimate.half_width, 5).c_str(),
        core::json_num(full.estimate.mean, 5).c_str(),
        inside ? "true" : "false");

    const auto noise_seq =
        characterize_read_noise_sequential(spec, kBudget, 13, stop);
    const auto noise_full =
        characterize_read_noise_sequential(spec, kBudget, 13, exhaustive);
    const bool noise_inside =
        noise_seq.estimate.contains(noise_full.estimate.mean);
    std::printf(
        "JSON {\"bench\":\"imc_early_stop\",\"study\":\"read_noise\","
        "\"device\":\"%s\",\"budget\":%d,\"samples_run\":%zu,"
        "\"saved_factor\":%s,\"estimate\":%s,\"half_width\":%s,"
        "\"oracle_mean\":%s,\"oracle_inside_ci\":%s}\n",
        spec.name.c_str(), kBudget, noise_seq.samples_run,
        core::json_num(noise_seq.saved_factor(), 2).c_str(),
        core::json_num(noise_seq.estimate.mean, 5).c_str(),
        core::json_num(noise_seq.estimate.half_width, 5).c_str(),
        core::json_num(noise_full.estimate.mean, 5).c_str(),
        noise_inside ? "true" : "false");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool early_stop = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--early-stop") {
      early_stop = true;
      // Consume the flag so google-benchmark doesn't reject it.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (early_stop) {
    print_early_stop_study();
    return 0;
  }
  print_tables();
  print_conv_mapping_table();
  return 0;
}
