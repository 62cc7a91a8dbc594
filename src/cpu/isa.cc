/**
 * @file
 * Static instruction helpers: op names, branch-condition evaluation
 * and the disassembly used by Program::listing(). (Op resource traits are
 * the constant table in isa.hh.)
 */

#include "cpu/isa.hh"

#include <sstream>

#include "sim/log.hh"

namespace specint
{

std::string
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::IntAlu: return "add";
      case Op::IntMul: return "mul";
      case Op::FpSqrt: return "vsqrtpd";
      case Op::FpDiv: return "vdivpd";
      case Op::Load: return "load";
      case Op::Store: return "store";
      case Op::Branch: return "br";
      case Op::Fence: return "fence";
      case Op::Halt: return "halt";
    }
    return "?";
}

bool
evalCond(BranchCond cond, std::uint64_t a, std::uint64_t b)
{
    switch (cond) {
      case BranchCond::LT: return a < b;
      case BranchCond::GE: return a >= b;
      case BranchCond::EQ: return a == b;
      case BranchCond::NE: return a != b;
    }
    panic("evalCond: unknown condition");
}

std::string
disassemble(const StaticInst &si)
{
    std::ostringstream os;
    os << opName(si.op);
    auto reg = [](RegId r) {
        return r == kNoReg ? std::string("-") : "r" + std::to_string(r);
    };
    switch (si.op) {
      case Op::IntAlu:
      case Op::IntMul:
      case Op::FpSqrt:
      case Op::FpDiv:
        os << ' ' << reg(si.dst) << ", " << reg(si.src1) << ", "
           << reg(si.src2) << ", #" << si.imm;
        break;
      case Op::Load:
        os << ' ' << reg(si.dst) << ", [" << reg(si.src1) << '*'
           << si.scale << " + " << si.imm << ']';
        break;
      case Op::Store:
        os << " [" << reg(si.src1) << '*' << si.scale << " + " << si.imm
           << "], " << reg(si.src2);
        break;
      case Op::Branch:
        os << ' ' << reg(si.src1) << ", " << reg(si.src2) << " -> "
           << si.target;
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace specint
