/**
 * @file
 * Replacement rule tests.
 *
 * The QLRU_H11_M1_R0_U0 tests validate exactly the policy semantics
 * the paper's receiver relies on (§4.2.2), including the full Fig. 8
 * state walk driven through a CacheArray; true LRU is checked against
 * a reference model over random touch/fill/invalidate sequences.
 */

#include <gtest/gtest.h>

#include <array>

#include "memory/cache.hh"
#include "memory/replacement.hh"
#include "sim/rng.hh"

namespace specint
{
namespace
{

Addr
lineAddrInSet(unsigned sets, unsigned set, unsigned k)
{
    // k-th distinct line mapping to `set` for a cache with `sets` sets.
    return (static_cast<Addr>(k) * sets + set) << kLineShift;
}

TEST(Qlru, InsertUsesAgeOne)
{
    std::uint64_t age[4] = {};
    std::uint64_t clock = 0;
    replInsert(ReplKind::Qlru, age, 2, clock);
    EXPECT_EQ(age[2], 1u);
}

TEST(Qlru, HitPromotionH11)
{
    std::uint64_t age[4] = {0, 1, 2, 3};
    std::uint64_t clock = 0;
    for (unsigned w = 0; w < 4; ++w)
        replHit(ReplKind::Qlru, age, w, clock);
    // 0->0, 1->0, 2->1, 3->1
    EXPECT_EQ(age[0], 0u);
    EXPECT_EQ(age[1], 0u);
    EXPECT_EQ(age[2], 1u);
    EXPECT_EQ(age[3], 1u);
}

TEST(Qlru, VictimPicksLeftmostAgeThree)
{
    std::uint64_t age[4] = {2, 3, 1, 3};
    EXPECT_EQ(replVictim(ReplKind::Qlru, age, 4), 1u);
}

TEST(Qlru, VictimAgesOnDemandU0)
{
    std::uint64_t age[4] = {0, 1, 2, 1};
    EXPECT_EQ(replVictim(ReplKind::Qlru, age, 4), 2u); // ages {1,2,3,2}
    EXPECT_EQ(age[0], 1u);
    EXPECT_EQ(age[1], 2u);
    EXPECT_EQ(age[3], 2u);
}

TEST(Qlru, AgingStopsAtFirstCandidate)
{
    std::uint64_t age[3] = {1, 2, 0};
    replVictim(ReplKind::Qlru, age, 3); // one round: {2,3,1}
    EXPECT_EQ(age[0], 2u);
    EXPECT_EQ(age[2], 1u);
}

/**
 * Fig. 8 end-to-end: prime saturates EVS1 ∪ {A} at age 0; the victim's
 * access order (A-B vs B-A) decides which of A/B survives the EVS2
 * probe. 16-way set, exactly like the paper's LLC sets.
 */
class QlruFig8 : public ::testing::TestWithParam<bool>
{
  protected:
    static constexpr unsigned kSets = 8;
    static constexpr unsigned kWays = 16;

    CacheGeometry geo()
    {
        return {"llc", kSets, kWays, ReplKind::Qlru};
    }

    void access(CacheArray &c, Addr a)
    {
        if (!c.touch(a))
            c.fill(a);
    }
};

TEST_P(QlruFig8, SecondAccessedLineSurvivesProbe)
{
    const bool order_ab = GetParam();
    CacheArray cache(geo());

    const unsigned set = 3;
    const Addr A = lineAddrInSet(kSets, set, 0);
    const Addr B = lineAddrInSet(kSets, set, 1);
    std::vector<Addr> evs1, evs2;
    for (unsigned k = 0; k < kWays - 1; ++k) {
        evs1.push_back(lineAddrInSet(kSets, set, 2 + k));
        evs2.push_back(lineAddrInSet(kSets, set, 2 + kWays - 1 + k));
    }

    // Prime: EVS1 ∪ {A} saturated at age 0.
    for (int round = 0; round < 4; ++round) {
        for (Addr ev : evs1)
            access(cache, ev);
        access(cache, A);
    }
    for (const auto &w : cache.snapshotSet(set)) {
        ASSERT_TRUE(w.valid);
        ASSERT_EQ(w.age, 0);
    }

    // Victim.
    if (order_ab) {
        access(cache, A);
        access(cache, B);
    } else {
        access(cache, B);
        access(cache, A);
    }

    // Probe.
    for (Addr ev : evs2)
        access(cache, ev);

    if (order_ab) {
        EXPECT_FALSE(cache.contains(A));
        EXPECT_TRUE(cache.contains(B));
    } else {
        EXPECT_TRUE(cache.contains(A));
        EXPECT_FALSE(cache.contains(B));
    }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, QlruFig8, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "AB" : "BA";
                         });

TEST(Lru, EvictsLeastRecentlyUsed)
{
    std::uint64_t stamp[4] = {};
    std::uint64_t clock = 0;
    for (unsigned w = 0; w < 4; ++w)
        replInsert(ReplKind::Lru, stamp, w, clock);
    replHit(ReplKind::Lru, stamp, 0, clock);
    EXPECT_EQ(replVictim(ReplKind::Lru, stamp, 4), 1u);
}

/**
 * Random touch/fill/invalidate steps through an LRU CacheArray against
 * a per-set model: a fill takes the leftmost invalid way, or else the
 * way touched longest ago, and every touch or fill refreshes its way.
 */
TEST(Lru, EvictsTheLeastRecentlyTouchedWay)
{
    constexpr unsigned kSets = 2, kWays = 8, kLinesPerSet = 16;
    struct ModelWay
    {
        bool valid = false;
        Addr line = kAddrInvalid;
        std::uint64_t stamp = 0;
    };
    std::array<std::array<ModelWay, kWays>, kSets> model{};
    std::uint64_t now = 0;
    CacheArray cache({"lru", kSets, kWays, ReplKind::Lru});
    Rng rng(2024);

    auto find = [&](unsigned set, Addr a) -> ModelWay * {
        for (ModelWay &w : model[set])
            if (w.valid && w.line == a)
                return &w;
        return nullptr;
    };

    unsigned evictions = 0;
    for (unsigned step = 0; step < 20000; ++step) {
        const unsigned set = static_cast<unsigned>(rng.below(kSets));
        const Addr a = lineAddrInSet(
            kSets, set, static_cast<unsigned>(rng.below(kLinesPerSet)));
        ModelWay *way = find(set, a);
        const auto op = rng.below(4);
        if (op == 3) { // invalidate
            ASSERT_EQ(cache.invalidate(a), way != nullptr)
                << "step " << step;
            if (way)
                way->valid = false;
        } else if (op == 0 || way) { // touch (also a fill of a resident line)
            ASSERT_EQ(cache.touch(a), way != nullptr) << "step " << step;
            if (way)
                way->stamp = ++now;
        } else { // fill
            ModelWay *victim = nullptr;
            for (ModelWay &w : model[set]) {
                if (!w.valid) {
                    victim = &w;
                    break;
                }
            }
            Addr expected = kAddrInvalid;
            if (!victim) {
                victim = &model[set][0];
                for (ModelWay &w : model[set])
                    if (w.stamp < victim->stamp)
                        victim = &w;
                expected = victim->line;
                ++evictions;
            }
            ASSERT_EQ(cache.fill(a), expected) << "step " << step;
            *victim = {true, a, ++now};
        }
    }
    EXPECT_GT(evictions, 1000u);
}

/**
 * Property: the paper's order-to-state conversion (§3.3) requires a
 * non-commutative policy. Both modelled rules must distinguish A-B
 * from B-A with the receiver's prime/probe protocol.
 */
class OrderSensitivity
    : public ::testing::TestWithParam<ReplKind>
{};

TEST_P(OrderSensitivity, DistinguishesOrderIffOrderSensitive)
{
    const ReplKind kind = GetParam();
    const unsigned sets = 4, ways = 8;
    auto run = [&](bool ab) {
        CacheArray cache({"c", sets, ways, kind});
        auto access = [&](Addr a) {
            if (!cache.touch(a))
                cache.fill(a);
        };
        const Addr A = lineAddrInSet(sets, 1, 0);
        const Addr B = lineAddrInSet(sets, 1, 1);
        for (int r = 0; r < 4; ++r) {
            for (unsigned k = 0; k < ways - 1; ++k)
                access(lineAddrInSet(sets, 1, 2 + k));
            access(A);
        }
        if (ab) {
            access(A);
            access(B);
        } else {
            access(B);
            access(A);
        }
        for (unsigned k = 0; k < ways - 1; ++k)
            access(lineAddrInSet(sets, 1, 2 + ways - 1 + k));
        return std::make_pair(cache.contains(A), cache.contains(B));
    };
    EXPECT_NE(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OrderSensitivity,
    ::testing::Values(ReplKind::Qlru, ReplKind::Lru),
    [](const auto &info) {
        return info.param == ReplKind::Qlru ? "qlru" : "lru";
    });

} // namespace
} // namespace specint
