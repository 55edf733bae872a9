// Layered decompositions (paper §4.4 and §7).
//
// A layered decomposition of the instance set D assigns every instance a
// group index (groups are processed first-to-last by the framework's
// epochs) and a set of *critical edges* pi(d) on its path, such that the
// interference property holds: whenever d1 and d2 overlap and d1's group
// is <= d2's group, path(d2) contains a critical edge of d1.
//
//  * Trees (Lemma 4.2/4.3): built from a tree decomposition H. The group
//    of d is determined by the H-depth of its capture node mu(d) (deepest
//    captures first); pi(d) consists of the wings of mu(d) on path(d) plus
//    the wings of the bending points of path(d) with respect to each pivot
//    of C(mu(d)). |pi(d)| <= 2*(theta+1), i.e. Delta = 6 for the ideal
//    decomposition.
//  * Lines (§7): groups by demand-instance length (factor-2 buckets,
//    shortest first); pi(d) = {start, mid, end} slots, Delta = 3. This is
//    the decomposition implicit in Panconesi-Sozio.
//
// Each rule exists once, as a per-instance function over state built
// once per problem. The static builders run it in one pass over a
// universe's instances; the DynamicUniverse's layerer runs it on each
// arrival.
#pragma once

#include <memory>
#include <string>

#include "core/dynamic_universe.hpp"
#include "core/universe.hpp"
#include "decomp/tree_decomposition.hpp"

namespace treesched {

/// Result of buildTreeLayering. `Layering` itself lives in
/// core/universe.hpp, which the dynamic universe's slabs share.
struct TreeLayeringResult {
  Layering layering;
};

/// Builds the layered decomposition of a tree universe via per-network
/// tree decompositions of the given kind (Lemma 4.2). With
/// DecompositionKind::Ideal this realizes Lemma 4.3: Delta <= 6 and
/// numGroups <= 2*ceil(lg n)+1.
TreeLayeringResult buildTreeLayering(
    const TreeProblem& problem, const InstanceUniverse& universe,
    DecompositionKind kind = DecompositionKind::Ideal);

/// Builds the §7 length-based layering of a line universe: Delta <= 3 and
/// numGroups <= ceil(lg(Lmax/Lmin)) + 1.
Layering buildLineLayering(const InstanceUniverse& universe);

/// Exhaustive check of the interference property over all overlapping
/// pairs (O(|D|^2 * pathlen); for tests). Empty string when valid.
std::string checkLayering(const InstanceUniverse& universe,
                          const Layering& layering);

/// Builds a DynamicUniverse over a tree problem (ideal decompositions,
/// Lemma 4.3) or a line problem (§7). Its layerer applies the same
/// per-instance rule as buildTreeLayering / buildLineLayering, and a
/// one-time pool pass fixes the pool constants (group count, Delta) so
/// group numbering never shifts under churn. The problem is validated
/// before anything reads it; the shared_ptr overloads avoid copying it.
DynamicUniverse makeDynamicTreeUniverse(
    std::shared_ptr<const TreeProblem> problem);
DynamicUniverse makeDynamicTreeUniverse(const TreeProblem& problem);
DynamicUniverse makeDynamicLineUniverse(
    std::shared_ptr<const LineProblem> problem);
DynamicUniverse makeDynamicLineUniverse(const LineProblem& problem);

}  // namespace treesched
