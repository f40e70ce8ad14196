#pragma once

/// \file pipeline.hpp
/// The "programmable" in Programmable RAN.
///
/// PRAN's data plane is not a fixed modem: each cell's per-subframe
/// processing is described by a pipeline of named stages that operators can
/// rearrange and extend at run time (the paper's examples: interference
/// cancellation, CoMP combining, new scheduling hooks). In this simulation
/// library a stage contributes processing cost as a function of the cell
/// configuration and the subframe's allocations; the controller plans
/// capacity against the *programmed* pipeline, not a hard-coded one, so
/// adding a stage immediately shows up in placement and deadline behaviour.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lte/cost_model.hpp"

namespace pran::core {

/// One stage of a programmable pipeline.
struct StageSpec {
  std::string name;
  /// Giga-operations this stage adds to one subframe. Empty only for the
  /// six standard stages, which lte::CostModel prices (a deployment
  /// charges them through SubframeJob::cost); append() and insert_after()
  /// require it.
  std::function<double(const lte::CellConfig&,
                       std::span<const lte::Allocation>)>
      cost_fn;
};

/// An ordered stage list with edit operations. Value type; copies are
/// independent (cells can run different programs).
class Pipeline {
 public:
  /// The standard uplink receive pipeline, whose stages `model` prices.
  /// Stage names match lte::stage_name: fft, chest, equalize, demod,
  /// decode, mac.
  static Pipeline standard_uplink(lte::CostModel model = lte::CostModel{});

  /// Appends a stage at the end.
  Pipeline& append(StageSpec stage);

  /// Inserts after the named stage; throws if absent.
  Pipeline& insert_after(const std::string& existing, StageSpec stage);

  /// Removes the named stage; throws if absent. Removing a standard stage
  /// lowers subframe_gops() only: SubframeJob::cost still charges all six
  /// standard stages, and the removal no longer offsets custom-stage cost
  /// in extra_gops().
  Pipeline& remove(const std::string& name);

  bool contains(const std::string& name) const;
  std::vector<std::string> stage_names() const;
  std::size_t size() const noexcept { return stages_.size(); }

  /// Total giga-operations of one subframe under this pipeline.
  double subframe_gops(const lte::CellConfig& cell,
                       std::span<const lte::Allocation> allocs) const;

  /// Giga-operations of the custom stages alone, for
  /// SubframeJob::extra_gops: exactly 0.0 for the standard pipeline.
  /// `base_gops` is not read, since SubframeJob::cost already holds the
  /// standard stages' cost; the parameter stays so that existing callers,
  /// such as the benchmark harness, build unchanged.
  double extra_gops(const lte::CellConfig& cell,
                    std::span<const lte::Allocation> allocs,
                    double base_gops) const;

 private:
  lte::CostModel model_;  ///< Prices the standard stages in subframe_gops.
  std::vector<StageSpec> stages_;
};

/// Library of optional stages an operator can program in.
namespace stages {

/// Successive interference cancellation: a second equalisation-and-demod
/// pass over the allocated PRBs (cost ~ antennas^2 * PRBs).
StageSpec interference_cancellation(double intensity = 1.0);

/// Coordinated multipoint combining across `cooperating_cells` neighbour
/// cells: extra per-PRB combining work proportional to the cluster size.
StageSpec comp_combining(int cooperating_cells);

/// Fine-grained uplink channel sounding for massive-MIMO-style CSI (cost ~
/// antennas * full band, independent of load).
StageSpec wideband_sounding();

}  // namespace stages

}  // namespace pran::core
