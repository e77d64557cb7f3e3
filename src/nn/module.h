// Module/parameter infrastructure: named trainable parameters, recursive
// collection, zeroing, counting and (de)serialization — the moral
// equivalent of torch::nn::Module for this library.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "autograd/var.h"
#include "util/status.h"

namespace emba {
namespace nn {

class CheckpointReader;

/// Base class for anything with trainable parameters.
///
/// Subclasses register parameters (RegisterParameter) and children
/// (RegisterModule) in their constructors; Parameters()/NamedParameters()
/// then walk the whole tree. Modules are neither copyable nor movable —
/// registered child pointers must stay stable.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters in registration order (depth-first).
  std::vector<ag::Var> Parameters() const;

  /// Parameters with hierarchical dotted names ("encoder.layer0.wq").
  std::vector<std::pair<std::string, ag::Var>> NamedParameters() const;

  /// Total number of scalar weights.
  int64_t ParameterCount() const;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Training-mode flag propagated to the whole tree (affects dropout).
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Saves all named parameters as a v2 checkpoint (see nn/checkpoint.h):
  /// versioned, checksummed, and published atomically — a crash mid-save
  /// never corrupts an existing file at `path`.
  Status SaveParameters(const std::string& path) const;

  /// Loads parameters from a v2 (or legacy v1) checkpoint, validating every
  /// header field and the payload checksum, then matching the file against
  /// the model with LoadParametersFrom (no prefix).
  Status LoadParameters(const std::string& path);

  /// The one parameter matcher (LoadParameters, trainer resume): every
  /// parameter must be in `reader` as `<prefix><name>` with its shape, and
  /// every tensor entry under `prefix` must match a parameter — an entry the
  /// model does not have (e.g. a renamed layer) is an error, since silently
  /// dropping it would leave stale weights in the mismatched layer. All of
  /// it is checked before any parameter is assigned, so on error the model
  /// is unchanged; on success every parameter is replaced and the int8
  /// weight generation is bumped.
  Status LoadParametersFrom(const CheckpointReader& reader,
                            const std::string& prefix);

 protected:
  /// Creates and registers a trainable parameter.
  ag::Var RegisterParameter(std::string name, Tensor init);
  /// Registers a child module (pointer must outlive this module).
  void RegisterModule(std::string name, Module* child);

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, ag::Var>>* out) const;

  std::vector<std::pair<std::string, ag::Var>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

/// Xavier/Glorot-uniform initialization for a [fan_in × fan_out] matrix.
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

/// Truncated-normal-ish init used for embedding tables (stddev 0.02, the
/// BERT default).
Tensor EmbeddingInit(int64_t vocab, int64_t dim, Rng* rng);

}  // namespace nn
}  // namespace emba
