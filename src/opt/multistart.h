#pragma once

#include <cstddef>
#include <vector>

#include "opt/lbfgs.h"
#include "opt/objective.h"

namespace cmmfo::opt {

/// Multi-start L-BFGS over a prebuilt start list. MLE landscapes for GP
/// kernels are multi-modal (e.g. long vs short lengthscale interpretations
/// of the same data); a handful of informed starts is the standard cure.
///
/// The starts run concurrently on at most `multiStartThreads()` threads, the
/// caller included. The caller runs start 0; then each thread claims the
/// next unclaimed start in index order until none is left. Results are reduced
/// in start-index order — a start replaces the incumbent only when its value
/// is finite and strictly lower — so the winner is exactly the one a
/// sequential loop over `starts` would keep, whatever the thread timing.
/// `f` must therefore be safe to call from several threads at once.
///
/// Returns the winning run with `iterations` replaced by the total over all
/// starts; with no finite result the value is +inf and `x` is empty. An
/// exception thrown inside any start is rethrown on the caller (the lowest
/// start index first) after every helper has joined.
OptResult multiStartMinimize(const GradObjectiveFn& f,
                             const std::vector<std::vector<double>>& starts,
                             const LbfgsOptions& opts = {});

/// Threads one `multiStartMinimize` call may use: half the hardware threads,
/// at least one. A fit waits for its slowest thread, so a fit spread over
/// every core slows down whenever the host takes any core away (other
/// processes, a hypervisor's steal). Half leaves the OS cores to move a
/// stalled helper to, which keeps fit time steady under varying host load.
std::size_t multiStartThreads();

}  // namespace cmmfo::opt
