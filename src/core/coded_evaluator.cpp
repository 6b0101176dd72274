#include "core/coded_evaluator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::core {

CodedDeliveryEvaluator::CodedDeliveryEvaluator(
    const model::ProblemInstance& instance,
    const AllocationProfile& allocation, FragmentConfig config,
    bool collaborative)
    : instance_(&instance),
      config_(config),
      collaborative_(collaborative),
      data_count_(instance.data_count()) {
  IDDE_EXPECTS(config.valid());
  const auto& requests = instance.requests();
  std::vector<std::size_t> item_degree(instance.data_count(), 0);
  std::size_t total_requests = 0;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    for (const std::size_t k : requests.items_of(j)) {
      ++item_degree[k];
      ++total_requests;
    }
  }
  request_user_.reserve(total_requests);
  request_item_.reserve(total_requests);
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    for (const std::size_t k : requests.items_of(j)) {
      request_user_.push_back(j);
      request_item_.push_back(k);
    }
  }
  item_req_offset_.assign(instance.data_count() + 1, 0);
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    item_req_offset_[k + 1] = item_req_offset_[k] + item_degree[k];
  }
  item_req_ids_.resize(total_requests);
  std::vector<std::size_t> cursor(item_req_offset_.begin(),
                                  item_req_offset_.end() - 1);
  for (std::size_t id = 0; id < total_requests; ++id) {
    item_req_ids_[cursor[request_item_[id]]++] = id;
  }
  serving_server_.resize(instance.user_count());
  request_serving_.resize(total_requests);
  request_latency_.resize(total_requests);
  hosts_flat_.assign(instance.data_count() * instance.server_count(), 0);
  host_count_.assign(instance.data_count(), 0);
  frag_mb_.reserve(instance.data_count());
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    frag_mb_.push_back(fragment_size_mb(instance.data(k).size_mb, config.k));
  }
  legs_.reserve(instance.server_count() + 1);
  reset(allocation, collaborative);
}

void CodedDeliveryEvaluator::reset(const AllocationProfile& allocation,
                                   bool collaborative) {
  IDDE_EXPECTS(allocation.size() == instance_->user_count());
  collaborative_ = collaborative;
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    serving_server_[j] = allocation[j].allocated() ? allocation[j].server
                                                   : ChannelSlot::kNone;
  }
  std::fill(host_count_.begin(), host_count_.end(), 0);
  total_latency_ = 0.0;
  for (std::size_t id = 0; id < request_user_.size(); ++id) {
    request_serving_[id] = serving_server_[request_user_[id]];
    const double cloud = instance_->latency().cloud_transfer_seconds(
        instance_->data(request_item_[id]).size_mb);
    request_latency_[id] = cloud;
    total_latency_ += cloud;
  }
}

double CodedDeliveryEvaluator::request_seconds(std::size_t id,
                                               std::size_t extra_host) const {
  const std::size_t serving = request_serving_[id];
  const std::size_t item = request_item_[id];
  const auto& latency = instance_->latency();
  const double item_mb = instance_->data(item).size_mb;
  const double frag_mb = frag_mb_[item];
  const std::size_t k = config_.k;

  legs_.clear();
  const std::size_t* const seg =
      hosts_flat_.data() + item * instance_->server_count();
  for (std::size_t h = 0; h < host_count_[item]; ++h) {
    const std::size_t host = seg[h];
    if (!collaborative_ && host != serving) continue;
    legs_.push_back(latency.edge_transfer_seconds(host, serving, frag_mb));
  }
  if (extra_host != kNoExtra &&
      (collaborative_ || extra_host == serving)) {
    legs_.push_back(latency.edge_transfer_seconds(extra_host, serving, frag_mb));
  }
  std::sort(legs_.begin(), legs_.end());

  // Coded Eq. 8: e edge legs in parallel, k - e fragments topped up from
  // the cloud (all k == the whole item, so e = 0 is the replication cloud
  // cap bitwise). Strict `<` keeps the smallest e on ties.
  double best = latency.cloud_transfer_seconds(item_mb);
  const std::size_t max_e = std::min(legs_.size(), k);
  for (std::size_t e = 1; e <= max_e; ++e) {
    const double topup =
        e == k ? 0.0
               : latency.cloud_transfer_seconds(
                     frag_mb * static_cast<double>(k - e));
    const double total = std::max(legs_[e - 1], topup);
    if (total < best) best = total;
  }
  return best;
}

double CodedDeliveryEvaluator::gain_seconds(std::size_t server,
                                            std::size_t item) const {
  IDDE_EXPECTS(server < instance_->server_count());
  IDDE_EXPECTS(item < data_count_);
  double gain = 0.0;
  for (std::size_t r = item_req_offset_[item]; r < item_req_offset_[item + 1];
       ++r) {
    const std::size_t id = item_req_ids_[r];
    if (request_serving_[id] == ChannelSlot::kNone) continue;
    const double candidate = request_seconds(id, server);
    if (candidate < request_latency_[id]) {
      gain += request_latency_[id] - candidate;
    }
  }
  return gain;
}

double CodedDeliveryEvaluator::commit(std::size_t server, std::size_t item) {
  IDDE_EXPECTS(server < instance_->server_count());
  IDDE_EXPECTS(item < data_count_);
  double gain = 0.0;
  for (std::size_t r = item_req_offset_[item]; r < item_req_offset_[item + 1];
       ++r) {
    const std::size_t id = item_req_ids_[r];
    if (request_serving_[id] == ChannelSlot::kNone) continue;
    const double candidate = request_seconds(id, server);
    if (candidate < request_latency_[id]) {
      gain += request_latency_[id] - candidate;
      request_latency_[id] = candidate;
    }
  }
  // Record the host after scoring so request_seconds saw "hosts + extra"
  // exactly once per request. Shift-insert keeps ids ascending.
  std::size_t* const seg =
      hosts_flat_.data() + item * instance_->server_count();
  std::size_t pos = host_count_[item];
  while (pos > 0 && seg[pos - 1] > server) {
    seg[pos] = seg[pos - 1];
    --pos;
  }
  seg[pos] = server;
  ++host_count_[item];
  total_latency_ -= gain;
  return gain;
}

double CodedDeliveryEvaluator::average_latency_seconds() const {
  if (request_user_.empty()) return 0.0;
  return total_latency_ / static_cast<double>(request_user_.size());
}

}  // namespace idde::core
