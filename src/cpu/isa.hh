/**
 * @file
 * Micro-op ISA of the simulated out-of-order core.
 *
 * The ISA is deliberately small — just enough to express the paper's
 * victim/attacker code patterns (Figs. 3-6): dependent ALU chains,
 * long-latency non-pipelined FP ops (the VSQRTPD/VDIVPD instructions
 * the D-Cache PoC uses, §4.2.1), loads with scaled register indexing
 * (for `load(&S[secret * 64])`), stores, conditional branches and
 * fences.
 */

#ifndef SPECINT_CPU_ISA_HH
#define SPECINT_CPU_ISA_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>

#include "sim/types.hh"

namespace specint
{

/** Number of architectural registers. */
constexpr unsigned kNumRegs = 64;

/** Register designator; kNoReg means "operand unused / reads as 0". */
using RegId = std::uint8_t;
constexpr RegId kNoReg = 0xff;

/** Micro-op classes. */
enum class Op : std::uint8_t
{
    Nop,     ///< no-op (also used as the I-cache PoC target marker)
    IntAlu,  ///< dst = src1 + src2 + imm; 1 cycle, pipelined
    IntMul,  ///< dst = src1 * src2 + imm; 4 cycles, pipelined
    FpSqrt,  ///< VSQRTPD analogue; long latency, NON-pipelined, port 0
    FpDiv,   ///< VDIVPD analogue; long latency, NON-pipelined, port 0
    Load,    ///< dst = mem[src1 * scale + imm]
    Store,   ///< mem[src1 * scale + imm] = src2
    Branch,  ///< conditional branch on (src1 cond src2), target = imm
    Fence,   ///< software serialisation: issues when it is ROB head
    Halt,    ///< stop fetching; program completes when this retires
};

/** Branch condition kinds. */
enum class BranchCond : std::uint8_t { LT, GE, EQ, NE };

/**
 * One static instruction: a 32-byte trivially copyable record. Its
 * label text, when it has one, lives in the owning Program's label
 * table (Program::label), so building and copying code moves no
 * strings.
 */
struct StaticInst
{
    Op op = Op::Nop;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    /** ALU immediate / memory displacement / (branches: unused). */
    std::int64_t imm = 0;
    /** Address scale for loads/stores: addr = r[src1]*scale + imm. */
    std::uint32_t scale = 1;
    /** Branch condition. */
    BranchCond cond = BranchCond::NE;
    /** The Program holds a label for this instruction (it sits in the
     *  padding after cond). */
    bool labeled = false;
    /** Branch taken-target (index into the program). */
    std::uint32_t target = 0;

    bool isLoad() const { return op == Op::Load; }
    bool isStore() const { return op == Op::Store; }
    bool isBranch() const { return op == Op::Branch; }
    bool isMem() const { return isLoad() || isStore(); }
    bool writesReg() const
    {
        return dst != kNoReg &&
               (op == Op::IntAlu || op == Op::IntMul || op == Op::FpSqrt ||
                op == Op::FpDiv || op == Op::Load);
    }
};

static_assert(std::is_trivially_copyable_v<StaticInst> &&
                  sizeof(StaticInst) == 32,
              "StaticInst must stay a 32-byte trivially copyable record");

/** Number of op classes (Op values are dense from 0). */
constexpr unsigned kNumOps = static_cast<unsigned>(Op::Halt) + 1;

/** Number of issue ports (Kaby Lake has 8, numbered 0-7; §4.1). */
constexpr unsigned kNumPorts = 8;

/** Fixed-capacity list of issue port numbers, in preference order. */
class PortList
{
  public:
    static constexpr unsigned kCapacity = 4;

    constexpr PortList(std::initializer_list<std::uint8_t> ports)
    {
        for (std::uint8_t p : ports)
            ports_[size_++] = p;
    }

    constexpr std::size_t size() const { return size_; }
    constexpr bool empty() const { return size_ == 0; }
    constexpr std::uint8_t operator[](std::size_t i) const
    {
        return ports_[i];
    }
    constexpr const std::uint8_t *begin() const { return ports_; }
    constexpr const std::uint8_t *end() const { return ports_ + size_; }

  private:
    std::uint8_t ports_[kCapacity] = {};
    std::uint8_t size_ = 0;
};

/** Execution-resource description of an op class. */
struct OpTraits
{
    Tick latency;
    bool pipelined;
    /** Issue ports this op may use, in preference order. */
    PortList ports;
};

/**
 * Resource traits of every op class, indexed by Op. Port bindings
 * mirror the Kaby Lake assignments the paper relies on (§4.2.1):
 * VSQRTPD/VDIVPD are single-uop, low-throughput ops on port 0; loads
 * use ports 2/3; stores port 4; branches port 6. IntAlu prefers ports
 * away from port 0 so that ALU traffic does not accidentally perturb
 * the non-pipelined unit experiments.
 */
inline constexpr OpTraits kOpTraits[kNumOps] = {
    {1, true, {5, 6, 1, 0}},  // Nop
    {1, true, {5, 6, 1, 0}},  // IntAlu
    {4, true, {1}},           // IntMul
    {15, false, {0}},         // FpSqrt
    {14, false, {0}},         // FpDiv
    {1, true, {2, 3}},        // Load
    {1, true, {4}},           // Store
    {1, true, {6, 0}},        // Branch
    {1, true, {5, 6, 1, 0}},  // Fence
    {1, true, {5, 6, 1, 0}},  // Halt
};

/** Resource traits for an op class. */
inline const OpTraits &
opTraits(Op op)
{
    return kOpTraits[static_cast<unsigned>(op)];
}

/** Printable op name. */
std::string opName(Op op);

/** Evaluate a branch condition. */
bool evalCond(BranchCond cond, std::uint64_t a, std::uint64_t b);

/** Disassemble one instruction, without its label (debugging aid;
 *  Program::listing adds the labels). */
std::string disassemble(const StaticInst &si);

} // namespace specint

#endif // SPECINT_CPU_ISA_HH
