/**
 * @file
 * Fetch/decode frontend implementation: predicted-path fetch
 * through the L1-I callback into the bounded decode queue, stalling when
 * the queue backs up (the G^I_RS throttling mechanism).
 */

#include "cpu/frontend.hh"

#include <cassert>

namespace specint
{

void
Frontend::reset(std::uint32_t pc)
{
    pc_ = pc;
    halted_ = false;
    busyUntil_ = 0;
    currentLine_ = kAddrInvalid;
    pendingInvisible_ = false;
    firstOfLine_ = false;
    queue_.clear();
}

void
Frontend::redirect(std::uint32_t pc, Tick ready_at)
{
    pc_ = pc;
    halted_ = false;
    busyUntil_ = ready_at;
    currentLine_ = kAddrInvalid;
    pendingInvisible_ = false;
    firstOfLine_ = false;
    queue_.clear();
}

FetchedInst
Frontend::popFront()
{
    assert(!queue_.empty());
    FetchedInst fi = queue_.front();
    queue_.pop_front();
    return fi;
}

void
Frontend::tick(Tick now, const Program &prog,
               const BranchPredictor &predictor, const IFetchFn &ifetch)
{
    if (halted_ || now < busyUntil_)
        return;

    unsigned fetched = 0;
    while (fetched < cfg_.fetchWidth && !queueFull() && !halted_) {
        if (pc_ >= prog.size()) {
            halted_ = true;
            break;
        }
        const Addr line = prog.instLine(pc_);
        if (line != currentLine_) {
            // Crossing into a new I-line: access the I-cache.
            const IFetchResult res = ifetch(line);
            currentLine_ = line;
            pendingInvisible_ = res.invisible;
            firstOfLine_ = true;
            if (res.readyAt > now) {
                busyUntil_ = res.readyAt;
                return;
            }
        }

        const StaticInst &si = prog.at(pc_);
        FetchedInst fi;
        fi.pc = pc_;
        if (firstOfLine_ && pendingInvisible_)
            fi.exposureLine = line;
        firstOfLine_ = false;

        if (si.isBranch()) {
            fi.predictedTaken = predictor.predict(pc_);
            pc_ = fi.predictedTaken ? si.target : pc_ + 1;
        } else if (si.op == Op::Halt) {
            halted_ = true;
        } else {
            ++pc_;
        }
        queue_.push_back(fi);
        ++fetched;
    }
}

} // namespace specint
