// Package core groups the three online algorithms that constitute the
// paper's contribution (Lucarelli, Moseley, Thang, Srivastav, Trystram:
// "Online Non-preemptive Scheduling on Unrelated Machines with Rejections",
// SPAA 2018):
//
//   - core/flowtime — Theorem 1: total flow time with job rejections
//     (2((1+ε)/ε)²-competitive, ≤ 2ε fraction of jobs rejected).
//   - core/speedscale — Theorem 2: weighted flow time plus energy under
//     speed scaling (O((1+1/ε)^(α/(α−1)))-competitive, ≤ ε fraction of the
//     total weight rejected).
//   - core/energymin — Theorem 3: energy minimization with deadlines via
//     the greedy configuration-LP primal-dual scheme (α^α-competitive for
//     P(s) = s^α; λ/(1−µ) for (λ,µ)-smooth powers).
//
// Each subpackage is self-contained: it implements the online algorithm, the
// dual-fitting bookkeeping its analysis relies on, and numeric feasibility
// audits used by the test suite and the experiment harness.
//
// Package core itself holds the registry of session-backed policies
// (flowtime, wflow, speedscale and the srpt/wsrpt comparators): one table
// entry per policy, through which schedsim, the front door and the goldens
// build, restore and finish sessions (see Lookup).
package core
