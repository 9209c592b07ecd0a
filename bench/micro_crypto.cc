/**
 * @file
 * google-benchmark microbenchmarks for the crypto substrate (host
 * throughput of the functional engines; simulated latency is a
 * timing-model parameter, not measured here).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/ctr_pad.hh"
#include "crypto/siphash.hh"

using namespace dolos::crypto;

namespace
{

void
BM_AesEncryptBlock(benchmark::State &state)
{
    AesKey key{};
    for (int i = 0; i < 16; ++i)
        key[i] = std::uint8_t(i);
    Aes128 aes(key);
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void
BM_CtrPad64B(benchmark::State &state)
{
    CtrPadGenerator gen(AesKey{{1, 2, 3}});
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        auto pad = gen.generate({1, 2, ++ctr}, 64);
        benchmark::DoNotOptimize(pad);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_CtrPad64B);

void
BM_SipHashMac(benchmark::State &state)
{
    const SipHashMac eng({1, 2, 3, 4});
    std::vector<std::uint8_t> block(64, 0x5A);
    for (auto _ : state) {
        auto tag = eng.compute(block.data(), block.size());
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_SipHashMac);

} // namespace

BENCHMARK_MAIN();
