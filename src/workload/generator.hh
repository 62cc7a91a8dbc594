/**
 * @file
 * Synthetic workload generator.
 *
 * SPEC CPU2017 (which the paper uses for Fig. 12) is licensed and
 * cannot ship here, so the defense-overhead experiment runs on
 * synthetic programs spanning the same behavioural axes: memory-level
 * parallelism vs serial pointer chasing, branch density and
 * predictability, ALU vs long-latency FP mix, and cache footprint.
 * Each generated program is named after the SPEC2017 archetype whose
 * published characteristics it mimics; what matters for the
 * reproduction is the *mechanism* (issue serialisation behind
 * unresolved speculation), which these programs exercise across the
 * same spectrum.
 */

#ifndef SPECINT_WORKLOAD_GENERATOR_HH
#define SPECINT_WORKLOAD_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cpu/program.hh"

namespace specint
{

/** Behavioural description of one synthetic workload. */
struct WorkloadSpec
{
    std::string name = "generic";
    /** Dynamic/static instruction count (straight-line programs). */
    unsigned instructions = 8000;

    /** Instruction-mix fractions (remainder is IntAlu). */
    double loadFrac = 0.25;
    double storeFrac = 0.05;
    double branchFrac = 0.10;
    double mulFrac = 0.05;
    double sqrtFrac = 0.00;

    /** Fraction of loads that are serial pointer-chases (MLP killer). */
    double chaseFrac = 0.0;
    /** Data footprint in cache lines (drives miss rates). */
    unsigned footprintLines = 256;
    /** P(branch taken); mispredict rate ~= min(p, 1-p) once trained. */
    double branchTakenProb = 0.10;

    /** Base address of the data footprint (0 = the generator's
     *  default region). Multi-core experiments give each core a
     *  distinct base so their footprints are disjoint. */
    Addr dataBase = 0;
    /** Base address of the program's code (0 = Program's default);
     *  distinct per core for the same reason. */
    Addr codeBase = 0;

    std::uint64_t seed = 12345;
};

/**
 * A generated program's memory image, kept as the rule that makes it:
 * a pointer ring over the footprint lines plus one branch predicate
 * per line (a value below 100, so a byte). Iterating yields the
 * (address, word) pairs to write, by value: ring word i (line i of
 * the ring region, pointing at line (i + 17) mod lines) for every
 * line, then predicate word i (line i of the data region) for every
 * line. A consumer writes them in that order.
 */
class MemImage
{
  public:
    MemImage() = default;
    MemImage(Addr ring_base, Addr data_base,
             std::vector<std::uint8_t> predicates)
        : ringBase_(ring_base), dataBase_(data_base),
          preds_(std::move(predicates))
    {
    }

    /** Iterator over the pairs, each computed on dereference. */
    class const_iterator
    {
      public:
        const_iterator(const MemImage &img, std::size_t pos)
            : img_(&img), pos_(pos)
        {
        }

        std::pair<Addr, std::uint64_t>
        operator*() const
        {
            const std::size_t n = img_->preds_.size();
            if (pos_ < n) {
                // A large stride defeats spatial locality, like mcf's
                // access stream. Only the last 17 lines wrap, so the
                // division is off the common path.
                std::size_t next = pos_ + 17;
                next = next < n ? next : next % n;
                return {img_->ringBase_ + 64ULL * pos_,
                        img_->ringBase_ + 64ULL * next};
            }
            const std::size_t line = pos_ - n;
            return {img_->dataBase_ + 64ULL * line, img_->preds_[line]};
        }
        const_iterator &operator++() { ++pos_; return *this; }
        bool operator!=(const_iterator o) const { return pos_ != o.pos_; }

      private:
        const MemImage *img_;
        std::size_t pos_;
    };

    const_iterator begin() const { return {*this, 0}; }
    const_iterator end() const { return {*this, 2 * preds_.size()}; }

  private:
    Addr ringBase_ = 0;
    Addr dataBase_ = 0;
    std::vector<std::uint8_t> preds_;
};

/** Generate the program (and its memory image) for a spec. */
struct GeneratedWorkload
{
    Program prog;
    /** Memory initialisation (pointer ring, branch data). */
    MemImage memInit;
};

GeneratedWorkload generateWorkload(const WorkloadSpec &spec);

/** The SPEC2017-archetype suite used by the Fig. 12 bench. */
std::vector<WorkloadSpec> spec2017Archetypes(unsigned instructions =
                                                 8000);

} // namespace specint

#endif // SPECINT_WORKLOAD_GENERATOR_HH
