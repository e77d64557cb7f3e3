#include "nn/module.h"

#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "nn/checkpoint.h"
#include "tensor/int8.h"

namespace emba {
namespace nn {

std::vector<ag::Var> Module::Parameters() const {
  std::vector<ag::Var> out;
  for (const auto& [name, var] : NamedParameters()) out.push_back(var);
  return out;
}

std::vector<std::pair<std::string, ag::Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, ag::Var>> out;
  CollectNamed("", &out);
  return out;
}

void Module::CollectNamed(
    const std::string& prefix,
    std::vector<std::pair<std::string, ag::Var>>* out) const {
  for (const auto& [name, var] : params_) {
    out->emplace_back(prefix.empty() ? name : prefix + "." + name, var);
  }
  for (const auto& [name, child] : children_) {
    child->CollectNamed(prefix.empty() ? name : prefix + "." + name, out);
  }
}

int64_t Module::ParameterCount() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.size();
  return total;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

ag::Var Module::RegisterParameter(std::string name, Tensor init) {
  ag::Var param = ag::Parameter(std::move(init));
  params_.emplace_back(std::move(name), param);
  return param;
}

void Module::RegisterModule(std::string name, Module* child) {
  EMBA_CHECK_MSG(child != nullptr, "RegisterModule: null child");
  children_.emplace_back(std::move(name), child);
}

Status Module::SaveParameters(const std::string& path) const {
  CheckpointWriter writer;
  for (const auto& [name, var] : NamedParameters()) {
    writer.AddTensor(name, var.value());
  }
  return writer.Write(path);
}

Status Module::LoadParameters(const std::string& path) {
  auto reader = CheckpointReader::Open(path);
  if (!reader.ok()) return reader.status();
  return LoadParametersFrom(*reader, "");
}

Status Module::LoadParametersFrom(const CheckpointReader& reader,
                                  const std::string& prefix) {
  auto named = NamedParameters();
  std::vector<const Tensor*> loaded;
  loaded.reserve(named.size());
  std::unordered_set<std::string> matched;
  for (const auto& [name, var] : named) {
    const Tensor* t = reader.FindTensor(prefix + name);
    if (t == nullptr) {
      return Status::NotFound("checkpoint missing parameter: " + name);
    }
    if (!(t->shape() == var.value().shape())) {
      return Status::Invalid("checkpoint parameter shape mismatch: " + name);
    }
    loaded.push_back(t);
    matched.insert(prefix + name);
  }
  for (const auto& entry : reader.TensorNames()) {
    if (entry.rfind(prefix, 0) == 0 && !matched.count(entry)) {
      return Status::Invalid("checkpoint entry matches no model parameter: " +
                             entry);
    }
  }
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.mutable_value() = *loaded[i];
  }
  // Loaded tensors replace parameter storage wholesale (and may reuse freed
  // pointers); any int8 quantized-weight cache built against the old values
  // is now stale.
  int8::BumpWeightGeneration();
  return Status::OK();
}

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandomUniform({fan_in, fan_out}, rng, -limit, limit);
}

Tensor EmbeddingInit(int64_t vocab, int64_t dim, Rng* rng) {
  return Tensor::RandomNormal({vocab, dim}, rng, 0.0f, 0.02f);
}

}  // namespace nn
}  // namespace emba
