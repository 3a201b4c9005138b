#include <gtest/gtest.h>

#include <string>

#include "problem/layer.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace {

TEST(Dims, MatrixAMatchesPaperTableIV)
{
    // Weights relate to R, S, C, K.
    EXPECT_TRUE(dimRelatesToTensor(Dim::R, Tensor::Weights));
    EXPECT_TRUE(dimRelatesToTensor(Dim::S, Tensor::Weights));
    EXPECT_TRUE(dimRelatesToTensor(Dim::C, Tensor::Weights));
    EXPECT_TRUE(dimRelatesToTensor(Dim::K, Tensor::Weights));
    EXPECT_FALSE(dimRelatesToTensor(Dim::P, Tensor::Weights));
    EXPECT_FALSE(dimRelatesToTensor(Dim::Q, Tensor::Weights));
    EXPECT_FALSE(dimRelatesToTensor(Dim::N, Tensor::Weights));
    // Inputs relate to R, S, P, Q, C, N but not K.
    EXPECT_TRUE(dimRelatesToTensor(Dim::P, Tensor::Inputs));
    EXPECT_TRUE(dimRelatesToTensor(Dim::C, Tensor::Inputs));
    EXPECT_TRUE(dimRelatesToTensor(Dim::N, Tensor::Inputs));
    EXPECT_FALSE(dimRelatesToTensor(Dim::K, Tensor::Inputs));
    // Outputs relate to P, Q, K, N but not R, S, C.
    EXPECT_TRUE(dimRelatesToTensor(Dim::P, Tensor::Outputs));
    EXPECT_TRUE(dimRelatesToTensor(Dim::K, Tensor::Outputs));
    EXPECT_FALSE(dimRelatesToTensor(Dim::C, Tensor::Outputs));
    EXPECT_FALSE(dimRelatesToTensor(Dim::R, Tensor::Outputs));
}

TEST(LayerSpec, FromLabelParsesPaperConvention)
{
    const LayerSpec spec = LayerSpec::fromLabel("3_14_256_512_2");
    EXPECT_EQ(spec.r, 3);
    EXPECT_EQ(spec.s, 3); // S = R
    EXPECT_EQ(spec.p, 14);
    EXPECT_EQ(spec.q, 14); // Q = P
    EXPECT_EQ(spec.c, 256);
    EXPECT_EQ(spec.k, 512);
    EXPECT_EQ(spec.stride, 2);
    EXPECT_EQ(spec.n, 1);
    EXPECT_EQ(spec.label(), "3_14_256_512_2");
}

TEST(LayerSpec, InputHalo)
{
    const LayerSpec spec = LayerSpec::fromLabel("3_14_256_512_2");
    EXPECT_EQ(spec.inputWidth(), (14 - 1) * 2 + 3);
    EXPECT_EQ(spec.inputHeight(), (14 - 1) * 2 + 3);
}

TEST(LayerSpec, MacsAndTensorSizes)
{
    LayerSpec spec;
    spec.r = spec.s = 3;
    spec.p = spec.q = 4;
    spec.c = 8;
    spec.k = 16;
    spec.n = 2;
    EXPECT_EQ(spec.macs(), 3LL * 3 * 4 * 4 * 8 * 16 * 2);
    EXPECT_EQ(spec.tensorElements(Tensor::Weights), 3LL * 3 * 8 * 16);
    EXPECT_EQ(spec.tensorElements(Tensor::Outputs), 4LL * 4 * 16 * 2);
    EXPECT_EQ(spec.tensorElements(Tensor::Inputs), 6LL * 6 * 8 * 2);
}

TEST(LayerSpec, CheckBoundsRejectsHugeBoundsAndOverflow)
{
    // The largest bound passes; one more fails like a zero bound.
    LayerSpec edge;
    edge.c = LayerSpec::kMaxBound;
    EXPECT_TRUE(edge.checkBounds().ok());
    edge.c = LayerSpec::kMaxBound + 1;
    EXPECT_EQ(edge.checkBounds().code(), ErrorCode::kInvalidInput);
    LayerSpec stride;
    stride.stride = LayerSpec::kMaxBound + 1;
    EXPECT_EQ(stride.checkBounds().code(), ErrorCode::kInvalidInput);

    // Labels run the same check, so a 2^61 - 1 bound never reaches
    // factorize(), whose trial division would take seconds on it.
    EXPECT_EQ(LayerSpec::parseLabel("3_7_2305843009213693951_8_1")
                  .status()
                  .code(),
              ErrorCode::kInvalidInput);

    // In-range bounds whose MAC count (2^64) overflows int64.
    const StatusOr<LayerSpec> macs =
        LayerSpec::parseLabel("65536_65536_1_1_1");
    ASSERT_FALSE(macs.ok());
    EXPECT_EQ(macs.status().code(), ErrorCode::kInvalidInput);
    EXPECT_NE(macs.status().message().find("MAC count"), std::string::npos)
        << macs.status().message();

    // A MAC count that fits (2^32) next to an input halo that does not:
    // each input extent is about 2^47 at a 2^31 - 1 stride.
    LayerSpec halo;
    halo.p = halo.q = 65536;
    halo.stride = LayerSpec::kMaxBound;
    const Status inputs = halo.checkBounds();
    EXPECT_EQ(inputs.code(), ErrorCode::kInvalidInput);
    EXPECT_NE(inputs.message().find("input tensor"), std::string::npos)
        << inputs.message();
}

TEST(FactorPool, CoversAllBounds)
{
    const LayerSpec spec = LayerSpec::fromLabel("3_14_256_512_1");
    FactorPool pool(spec);
    for (Dim d : kAllDims) {
        std::int64_t prod = 1;
        for (int i : pool.indicesOfDim(d))
            prod *= pool[i].value;
        EXPECT_EQ(prod, spec.bound(d)) << dimName(d);
        EXPECT_EQ(pool.paddedBound(d), spec.bound(d));
    }
    EXPECT_FALSE(pool.anyPadded());
}

TEST(FactorPool, FactorCountMatchesFactorization)
{
    // 3_14_256_512_1: R=S=3 (1 each), P=Q=14 (2 each: 2*7),
    // C=256 (8 twos), K=512 (9 twos), N=1 (none). Total 1+1+2+2+8+9 = 23.
    const LayerSpec spec = LayerSpec::fromLabel("3_14_256_512_1");
    FactorPool pool(spec);
    EXPECT_EQ(pool.size(), 23);
}

TEST(FactorPool, PadsLargePrimes)
{
    LayerSpec spec;
    spec.c = 1009; // prime larger than the smoothness threshold
    FactorPool pool(spec, /*max_prime=*/7);
    EXPECT_TRUE(pool.anyPadded());
    EXPECT_GE(pool.paddedBound(Dim::C), 1009);
    for (int i : pool.indicesOfDim(Dim::C))
        EXPECT_LE(pool[i].value, 7);
}

TEST(Workloads, SuiteSizesMatchPaperFigures)
{
    EXPECT_EQ(workloads::alexNet().layers.size(), 8u);
    EXPECT_EQ(workloads::resNet50().layers.size(), 23u);
    EXPECT_EQ(workloads::resNeXt50().layers.size(), 25u);
    EXPECT_EQ(workloads::deepBench().layers.size(), 9u);
    EXPECT_EQ(workloads::allSuites().size(), 4u);
}

TEST(Workloads, AllLayersWellFormed)
{
    for (const auto& suite : workloads::allSuites()) {
        for (const auto& layer : suite.layers) {
            EXPECT_GT(layer.macs(), 0) << layer.name;
            for (Dim d : kAllDims)
                EXPECT_GE(layer.bound(d), 1) << layer.name;
        }
    }
}

TEST(Workloads, FigureLayersMatchPaperText)
{
    const LayerSpec f1 = workloads::fig1Layer();
    EXPECT_EQ(f1.r, 3);
    EXPECT_EQ(f1.c, 256);
    EXPECT_EQ(f1.k, 256);
    EXPECT_EQ(f1.p, 14);

    const LayerSpec f3 = workloads::fig3Layer();
    EXPECT_EQ(f3.p, 8);
    EXPECT_EQ(f3.c, 32);
    EXPECT_EQ(f3.k, 1024);

    const LayerSpec f4 = workloads::fig4Layer();
    EXPECT_EQ(f4.r, 1);
    EXPECT_EQ(f4.p, 16);
    EXPECT_EQ(f4.c, 256);

    const LayerSpec l1 = workloads::listing1Layer();
    EXPECT_EQ(l1.n, 3);
    EXPECT_EQ(l1.p, 28);
}

TEST(Workloads, ResNetContainsFig8Layer)
{
    const auto resnet = workloads::resNet50();
    bool found = false;
    for (const auto& layer : resnet.layers)
        found = found || layer.name == "3_7_512_512_1";
    EXPECT_TRUE(found);
    EXPECT_EQ(workloads::fig8Layer().name, "3_7_512_512_1");
}

} // namespace
} // namespace cosa
