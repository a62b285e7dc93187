#include "chan/pointer_chase.hh"

namespace wb::chan
{

PointerChase::PointerChase(std::vector<Addr> lines)
    : order_(std::move(lines))
{
}

void
PointerChase::reshuffle(Rng &rng)
{
    rng.shuffle(order_);
}

std::vector<sim::MemOp>
PointerChase::measurementOps() const
{
    std::vector<sim::MemOp> ops;
    ops.reserve(order_.size() + 2);
    ops.push_back(sim::MemOp::tscRead());
    for (Addr a : order_)
        ops.push_back(sim::MemOp::load(a));
    ops.push_back(sim::MemOp::tscRead());
    return ops;
}

} // namespace wb::chan
