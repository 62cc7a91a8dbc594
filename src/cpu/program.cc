/**
 * @file
 * Program builder implementation: the fluent
 * movi/alu/load/store/br assembler, instruction labels, and listing
 * dump.
 */

#include "cpu/program.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace specint
{

unsigned
Program::add(StaticInst si, std::string_view label)
{
    const auto pc = static_cast<unsigned>(code_.size());
    si.labeled = !label.empty();
    if (si.labeled)
        labels_.emplace_back(pc, label);
    code_.push_back(si);
    return pc;
}

unsigned
Program::nop(std::string_view label)
{
    StaticInst si;
    si.op = Op::Nop;
    return add(si, label);
}

unsigned
Program::alu(RegId dst, RegId src1, RegId src2, std::int64_t imm,
             std::string_view label)
{
    StaticInst si;
    si.op = Op::IntAlu;
    si.dst = dst;
    si.src1 = src1;
    si.src2 = src2;
    si.imm = imm;
    return add(si, label);
}

unsigned
Program::movi(RegId dst, std::int64_t imm, std::string_view label)
{
    return alu(dst, kNoReg, kNoReg, imm, label);
}

unsigned
Program::mul(RegId dst, RegId src1, RegId src2, std::int64_t imm,
             std::string_view label)
{
    StaticInst si;
    si.op = Op::IntMul;
    si.dst = dst;
    si.src1 = src1;
    si.src2 = src2;
    si.imm = imm;
    return add(si, label);
}

unsigned
Program::sqrt(RegId dst, RegId src1, std::string_view label)
{
    StaticInst si;
    si.op = Op::FpSqrt;
    si.dst = dst;
    si.src1 = src1;
    return add(si, label);
}

unsigned
Program::fdiv(RegId dst, RegId src1, std::string_view label)
{
    StaticInst si;
    si.op = Op::FpDiv;
    si.dst = dst;
    si.src1 = src1;
    return add(si, label);
}

unsigned
Program::load(RegId dst, RegId base, std::int64_t disp,
              std::uint32_t scale, std::string_view label)
{
    StaticInst si;
    si.op = Op::Load;
    si.dst = dst;
    si.src1 = base;
    si.imm = disp;
    si.scale = scale;
    return add(si, label);
}

unsigned
Program::store(RegId base, RegId value, std::int64_t disp,
               std::uint32_t scale, std::string_view label)
{
    StaticInst si;
    si.op = Op::Store;
    si.src1 = base;
    si.src2 = value;
    si.imm = disp;
    si.scale = scale;
    return add(si, label);
}

unsigned
Program::branch(BranchCond cond, RegId src1, RegId src2,
                std::uint32_t target, std::string_view label)
{
    StaticInst si;
    si.op = Op::Branch;
    si.cond = cond;
    si.src1 = src1;
    si.src2 = src2;
    si.target = target;
    return add(si, label);
}

unsigned
Program::fence(std::string_view label)
{
    StaticInst si;
    si.op = Op::Fence;
    return add(si, label);
}

unsigned
Program::halt()
{
    StaticInst si;
    si.op = Op::Halt;
    return add(si);
}

void
Program::setReg(RegId reg, std::uint64_t value)
{
    assert(reg < kNumRegs);
    regs_[reg] = value;
}

void
Program::setBranchTarget(unsigned branch_idx, std::uint32_t target)
{
    assert(branch_idx < code_.size() && code_[branch_idx].isBranch());
    code_[branch_idx].target = target;
}

void
Program::setImmediate(unsigned idx, std::int64_t imm)
{
    assert(idx < code_.size());
    code_[idx].imm = imm;
}

std::string_view
Program::label(unsigned pc) const
{
    const auto it = std::lower_bound(
        labels_.begin(), labels_.end(), pc,
        [](const auto &entry, unsigned p) { return entry.first < p; });
    if (it == labels_.end() || it->first != pc)
        return {};
    return it->second;
}

int
Program::findLabel(std::string_view label) const
{
    for (const auto &[pc, text] : labels_)
        if (text == label)
            return static_cast<int>(pc);
    return -1;
}

std::string
Program::listing() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < code_.size(); ++i) {
        os << i << ":\t" << disassemble(code_[i]);
        if (code_[i].labeled)
            os << "  ; " << label(static_cast<unsigned>(i));
        os << '\n';
    }
    return os.str();
}

} // namespace specint
