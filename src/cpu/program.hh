/**
 * @file
 * Program container and builder.
 *
 * A Program is the full static code image the core fetches from —
 * including wrong-path code, since transient execution runs real
 * instructions. Programs also carry the initial architectural register
 * state and the base address of the code image (used to derive
 * I-fetch line addresses for the I-Cache PoC).
 */

#ifndef SPECINT_CPU_PROGRAM_HH
#define SPECINT_CPU_PROGRAM_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/isa.hh"
#include "sim/types.hh"

namespace specint
{

/** Static program image plus initial architectural state. */
class Program
{
  public:
    /** @param code_base byte address of instruction index 0. Each
     *  instruction occupies 4 bytes in the simulated I-space. */
    explicit Program(Addr code_base = 0x400000)
        : codeBase_(code_base)
    {}

    /** @name Builder interface (returns the new instruction's index)
     *  An empty label leaves the instruction unlabelled. */
    /// @{
    unsigned add(StaticInst si, std::string_view label = {});

    unsigned nop(std::string_view label = {});
    /** dst = src1 + src2 + imm. */
    unsigned alu(RegId dst, RegId src1, RegId src2 = kNoReg,
                 std::int64_t imm = 0, std::string_view label = {});
    /** dst = imm (move-immediate pseudo-op). */
    unsigned movi(RegId dst, std::int64_t imm, std::string_view label = {});
    unsigned mul(RegId dst, RegId src1, RegId src2 = kNoReg,
                 std::int64_t imm = 0, std::string_view label = {});
    /** Long-latency non-pipelined op (VSQRTPD analogue). */
    unsigned sqrt(RegId dst, RegId src1, std::string_view label = {});
    unsigned fdiv(RegId dst, RegId src1, std::string_view label = {});
    /** dst = mem[src1*scale + disp]. src1 == kNoReg: absolute. */
    unsigned load(RegId dst, RegId base, std::int64_t disp,
                  std::uint32_t scale = 1, std::string_view label = {});
    unsigned store(RegId base, RegId value, std::int64_t disp,
                   std::uint32_t scale = 1, std::string_view label = {});
    /** Branch to @p target if (src1 cond src2). */
    unsigned branch(BranchCond cond, RegId src1, RegId src2,
                    std::uint32_t target, std::string_view label = {});
    unsigned fence(std::string_view label = {});
    unsigned halt();
    /// @}

    /** Reserve room for @p instructions instructions. */
    void reserve(std::size_t instructions) { code_.reserve(instructions); }

    /** Set the initial value of a register. */
    void setReg(RegId reg, std::uint64_t value);

    /** Patch a branch's target after the fact (forward branches). */
    void setBranchTarget(unsigned branch_idx, std::uint32_t target);

    /** Patch an instruction's immediate/displacement after the fact. */
    void setImmediate(unsigned idx, std::int64_t imm);

    std::size_t size() const { return code_.size(); }
    bool empty() const { return code_.empty(); }
    const StaticInst &at(unsigned pc) const { return code_[pc]; }
    const std::vector<StaticInst> &code() const { return code_; }

    Addr codeBase() const { return codeBase_; }
    /** Byte address of instruction @p pc (4 bytes per instruction). */
    Addr instAddr(unsigned pc) const { return codeBase_ + 4ULL * pc; }
    /** I-cache line address holding instruction @p pc. */
    Addr instLine(unsigned pc) const { return lineAlign(instAddr(pc)); }

    const std::vector<std::uint64_t> &initRegs() const { return regs_; }

    /** Label of instruction @p pc ("" if it has none). */
    std::string_view label(unsigned pc) const;

    /** Index of the first instruction carrying @p label (-1 if none). */
    int findLabel(std::string_view label) const;

    /** Full disassembly listing. */
    std::string listing() const;

  private:
    Addr codeBase_;
    std::vector<StaticInst> code_;
    /** (pc, label) of every labelled instruction, in pc order. */
    std::vector<std::pair<unsigned, std::string>> labels_;
    std::vector<std::uint64_t> regs_ = std::vector<std::uint64_t>(
        kNumRegs, 0);
};

} // namespace specint

#endif // SPECINT_CPU_PROGRAM_HH
