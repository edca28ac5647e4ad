// Reference implementations of the two post-run observer passes: the
// straightforward map-and-sort versions (one std::sort over every edge of
// the run for the budget, per-lane std::map grouping and tuple-keyed
// inboxes for the critical path). They are slow and simple on purpose;
// the differential fuzz tests hold the merge-based passes in obs/ to
// exactly their doubles and segments.
#pragma once

#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"

namespace hetscale::obs::reference {

TimeBudget compute_time_budget(const SpanStore& store, double elapsed);

CriticalPath critical_path(const SpanStore& store,
                           const std::vector<PathMessage>& messages,
                           double elapsed);

}  // namespace hetscale::obs::reference
