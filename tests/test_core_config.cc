/**
 * @file
 * CoreConfig / SmtConfig validation tests: malformed structural
 * configurations must be rejected with a clear error instead of
 * silently misbehaving.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "cpu/pipeline/engine.hh"
#include "cpu/rob.hh"
#include "memory/hierarchy.hh"

namespace specint
{
namespace
{

TEST(CoreConfigValidation, DefaultConfigIsValid)
{
    EXPECT_EQ(CoreConfig{}.validate(), "");
}

TEST(CoreConfigValidation, ZeroSizedStructuresAreRejected)
{
    const auto breaks = {
        std::pair<unsigned CoreConfig::*, const char *>{
            &CoreConfig::fetchWidth, "fetchWidth"},
        {&CoreConfig::decodeQueue, "decodeQueue"},
        {&CoreConfig::dispatchWidth, "dispatchWidth"},
        {&CoreConfig::issueWidth, "issueWidth"},
        {&CoreConfig::retireWidth, "retireWidth"},
        {&CoreConfig::robSize, "robSize"},
        {&CoreConfig::rsSize, "rsSize"},
        {&CoreConfig::lqSize, "lqSize"},
        {&CoreConfig::sqSize, "sqSize"},
        {&CoreConfig::mshrs, "mshrs"},
        {&CoreConfig::cdbWidth, "cdbWidth"},
    };
    for (const auto &[field, name] : breaks) {
        CoreConfig cfg;
        cfg.*field = 0;
        const std::string err = cfg.validate();
        EXPECT_NE(err, "") << name;
        EXPECT_NE(err.find(name), std::string::npos) << err;
    }
}

TEST(CoreConfigValidation, IssueWidthBeyondPortCountIsRejected)
{
    CoreConfig cfg;
    cfg.issueWidth = kNumPorts + 1;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("issueWidth"), std::string::npos) << err;
    EXPECT_NE(err.find("port count"), std::string::npos) << err;
}

TEST(CoreConfigValidation, RobBeyondTheSlotSetCapacityIsRejected)
{
    CoreConfig cfg;
    cfg.robSize = static_cast<unsigned>(kMaxRobSize);
    EXPECT_EQ(cfg.validate(), "");
    cfg.robSize = static_cast<unsigned>(kMaxRobSize) + 1;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("robSize"), std::string::npos) << err;
}

TEST(CoreConfigValidation, ZeroMaxCyclesIsRejected)
{
    CoreConfig cfg;
    cfg.maxCycles = 0;
    EXPECT_NE(cfg.validate().find("maxCycles"), std::string::npos);
}

TEST(CoreConfigValidationDeathTest, CoreConstructorFatalsOnBadConfig)
{
    CoreConfig cfg;
    cfg.robSize = 0;
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    EXPECT_EXIT(Core(cfg, 0, hier, mem),
                ::testing::ExitedWithCode(1), "CoreConfig: robSize");
}

TEST(SmtConfigValidation, DefaultsAreValid)
{
    EXPECT_EQ(validateSmtConfig(SmtConfig{}, CoreConfig{}), "");
    EXPECT_EQ(validateSmtConfig(SmtConfig::singleThread(), CoreConfig{}),
              "");
}

TEST(SmtConfigValidation, ThreadCountBoundsAreEnforced)
{
    SmtConfig smt;
    smt.numThreads = 0;
    EXPECT_NE(validateSmtConfig(smt, CoreConfig{}), "");
    smt.numThreads = kMaxSmtThreads + 1;
    EXPECT_NE(validateSmtConfig(smt, CoreConfig{}), "");
}

TEST(SmtConfigValidation, DegeneratePartitionIsRejected)
{
    // Partitioning a 1-entry structure across 2 threads would leave a
    // thread with zero entries: rejected up front.
    CoreConfig core;
    core.sqSize = 1;
    SmtConfig smt;
    smt.sqPolicy = SharingPolicy::Partitioned;
    const std::string err = validateSmtConfig(smt, core);
    EXPECT_NE(err.find("sqSize"), std::string::npos) << err;
    // The same structure competitively shared is fine.
    smt.sqPolicy = SharingPolicy::Shared;
    EXPECT_EQ(validateSmtConfig(smt, core), "");
}

TEST(SmtConfigValidationDeathTest, EngineConstructorFatalsOnBadConfig)
{
    SmtConfig smt;
    smt.numThreads = 0;
    Hierarchy hier(HierarchyConfig::small());
    MainMemory mem;
    EXPECT_EXIT(PipelineEngine(CoreConfig{}, smt, 0, hier, mem),
                ::testing::ExitedWithCode(1), "numThreads");
}

} // namespace
} // namespace specint
