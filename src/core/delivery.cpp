#include "core/delivery.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::core {

DeliveryProfile::DeliveryProfile(const model::ProblemInstance& instance)
    : DeliveryProfile(instance, replication_shape(instance.server_count())) {}

DeliveryProfile::DeliveryProfile(const model::ProblemInstance& instance,
                                 FragmentConfig shape)
    : shape_(shape),
      data_count_(instance.data_count()),
      flags_(instance.server_count() * instance.data_count(), false),
      hosts_flat_(instance.data_count() * instance.server_count(), 0),
      host_count_(instance.data_count(), 0) {
  IDDE_EXPECTS(shape.valid());
  free_kb_.reserve(instance.server_count());
  for (const model::EdgeServer& s : instance.servers()) {
    free_kb_.push_back(mb_to_kb(s.storage_mb));
  }
  item_kb_.reserve(instance.data_count());
  item_mb_.reserve(instance.data_count());
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    const double size_mb = instance.data(k).size_mb;
    item_kb_.push_back(fragment_size_kb(size_mb, shape.k));
    item_mb_.push_back(fragment_size_mb(size_mb, shape.k));
  }
}

bool DeliveryProfile::can_place(std::size_t server, std::size_t item) const {
  IDDE_EXPECTS(server < free_kb_.size());
  IDDE_EXPECTS(item < data_count_);
  if (placed(server, item)) return false;
  if (host_count_[item] >= shape_.n) return false;
  return item_kb_[item] <= free_kb_[server];
}

void DeliveryProfile::place(std::size_t server, std::size_t item) {
  IDDE_ASSERT(can_place(server, item), "infeasible placement");
  flags_[server * data_count_ + item] = true;
  free_kb_[server] -= item_kb_[item];
  // Shift-insert into the item's arena segment, keeping ids ascending.
  std::size_t* const seg = hosts_flat_.data() + item * free_kb_.size();
  std::size_t pos = host_count_[item];
  while (pos > 0 && seg[pos - 1] > server) {
    seg[pos] = seg[pos - 1];
    --pos;
  }
  seg[pos] = server;
  ++host_count_[item];
  ++count_;
}

void DeliveryProfile::remove(std::size_t server, std::size_t item) {
  IDDE_EXPECTS(server < free_kb_.size());
  IDDE_EXPECTS(item < data_count_);
  IDDE_ASSERT(placed(server, item), "removing absent placement");
  flags_[server * data_count_ + item] = false;
  free_kb_[server] += item_kb_[item];
  // Shift-erase from the item's arena segment, keeping ids ascending.
  std::size_t* const seg = hosts_flat_.data() + item * free_kb_.size();
  std::size_t pos = 0;
  while (seg[pos] != server) ++pos;
  for (std::size_t tail = pos + 1; tail < host_count_[item]; ++tail) {
    seg[tail - 1] = seg[tail];
  }
  --host_count_[item];
  --count_;
}

DeliveryEvaluator::DeliveryEvaluator(const model::ProblemInstance& instance,
                                     const AllocationProfile& allocation,
                                     bool collaborative)
    : DeliveryEvaluator(instance, allocation,
                        replication_shape(instance.server_count()),
                        collaborative) {}

DeliveryEvaluator::DeliveryEvaluator(const model::ProblemInstance& instance,
                                     const AllocationProfile& allocation,
                                     FragmentConfig shape, bool collaborative)
    : instance_(&instance), shape_(shape), collaborative_(collaborative) {
  const auto& requests = instance.requests();
  // Structure first (instance-dependent only), then the allocation- and
  // shape-dependent state via the same path reset() uses.
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
  reset(allocation, shape, collaborative);
}

void DeliveryEvaluator::reset(const AllocationProfile& allocation,
                              FragmentConfig shape, bool collaborative) {
  IDDE_EXPECTS(allocation.size() == instance_->user_count());
  IDDE_EXPECTS(shape.valid());
  shape_ = shape;
  collaborative_ = collaborative;
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    serving_server_[j] =
        allocation[j].allocated() ? allocation[j].server : ChannelSlot::kNone;
  }
  total_latency_ = 0.0;
  for (std::size_t id = 0; id < request_user_.size(); ++id) {
    request_serving_[id] = serving_server_[request_user_[id]];
    const double cloud = instance_->latency().cloud_transfer_seconds(
        instance_->data(request_item_[id]).size_mb);
    request_latency_[id] = cloud;
    total_latency_ += cloud;
  }
  if (shape.k == 1) return;
  const std::size_t items = instance_->data_count();
  const std::size_t servers = instance_->server_count();
  fragment_mb_.resize(items);
  for (std::size_t k = 0; k < items; ++k) {
    fragment_mb_[k] = fragment_size_mb(instance_->data(k).size_mb, shape.k);
  }
  hosts_flat_.resize(items * servers);
  host_count_.assign(items, 0);
  candidate_hosts_.resize(servers);
  if (!resolver_.has_value()) resolver_.emplace(*instance_);
}

std::span<const std::size_t> DeliveryEvaluator::hosts_with(
    std::size_t server, std::size_t item) const {
  const std::size_t* const seg =
      hosts_flat_.data() + item * instance_->server_count();
  const std::size_t count = host_count_[item];
  std::size_t* const out = candidate_hosts_.data();
  std::size_t pos = 0;
  for (; pos < count && seg[pos] < server; ++pos) out[pos] = seg[pos];
  IDDE_EXPECTS(pos == count || seg[pos] != server);
  out[pos] = server;
  std::copy(seg + pos, seg + count, out + pos + 1);
  return {out, count + 1};
}

template <class Improve>
double DeliveryEvaluator::coded_gain_seconds(std::size_t server,
                                             std::size_t item,
                                             Improve improve) const {
  const std::span<const std::size_t> hosts = hosts_with(server, item);
  Eq8Request request{.hosts = hosts,
                     .serving = ChannelSlot::kNone,
                     .item_mb = instance_->data(item).size_mb,
                     .fragment_mb = fragment_mb_[item],
                     .k = shape_.k};
  double gain = 0.0;
  for (std::size_t r = item_req_offset_[item]; r < item_req_offset_[item + 1];
       ++r) {
    const std::size_t id = item_req_ids_[r];
    const std::size_t serving = request_serving_[id];
    if (serving == ChannelSlot::kNone) continue;  // cloud-only user
    request.serving = serving;
    if (!collaborative_) {
      // Local-or-cloud delivery sees at most its own server's fragment.
      const bool local =
          std::binary_search(hosts.begin(), hosts.end(), serving);
      request.hosts = {&request_serving_[id], local ? 1U : 0U};
    }
    const double candidate = resolver_->estimate(request).seconds;
    if (candidate < request_latency_[id]) {
      gain += request_latency_[id] - candidate;
      improve(id, candidate);
    }
  }
  return gain;
}

double DeliveryEvaluator::gain_seconds(std::size_t server,
                                       std::size_t item) const {
  IDDE_EXPECTS(server < instance_->server_count());
  IDDE_EXPECTS(item < instance_->data_count());
  if (shape_.k > 1) {
    return coded_gain_seconds(server, item, [](std::size_t, double) {});
  }
  const double size = instance_->data(item).size_mb;
  const auto& latency = instance_->latency();
  double gain = 0.0;
  for (std::size_t r = item_req_offset_[item]; r < item_req_offset_[item + 1];
       ++r) {
    const std::size_t id = item_req_ids_[r];
    const std::size_t serving = request_serving_[id];
    if (serving == ChannelSlot::kNone) continue;  // cloud-only user
    if (!collaborative_ && serving != server) continue;
    const double candidate =
        latency.edge_transfer_seconds(server, serving, size);
    if (candidate < request_latency_[id]) {
      gain += request_latency_[id] - candidate;
    }
  }
  return gain;
}

double DeliveryEvaluator::commit(std::size_t server, std::size_t item) {
  if (shape_.k > 1) {
    IDDE_EXPECTS(server < instance_->server_count());
    IDDE_EXPECTS(item < instance_->data_count());
    const double gain = coded_gain_seconds(
        server, item, [this](std::size_t id, double seconds) {
          request_latency_[id] = seconds;
        });
    // Record the host after pricing, so every request saw it exactly once.
    const std::span<const std::size_t> hosts = hosts_with(server, item);
    std::copy(hosts.begin(), hosts.end(),
              hosts_flat_.begin() + static_cast<std::ptrdiff_t>(
                                        item * instance_->server_count()));
    ++host_count_[item];
    total_latency_ -= gain;
    return gain;
  }
  const double size = instance_->data(item).size_mb;
  const auto& latency = instance_->latency();
  double gain = 0.0;
  for (std::size_t r = item_req_offset_[item]; r < item_req_offset_[item + 1];
       ++r) {
    const std::size_t id = item_req_ids_[r];
    const std::size_t serving = request_serving_[id];
    if (serving == ChannelSlot::kNone) continue;
    if (!collaborative_ && serving != server) continue;
    const double candidate =
        latency.edge_transfer_seconds(server, serving, size);
    if (candidate < request_latency_[id]) {
      gain += request_latency_[id] - candidate;
      request_latency_[id] = candidate;
    }
  }
  total_latency_ -= gain;
  return gain;
}

double DeliveryEvaluator::average_latency_seconds() const {
  if (request_user_.empty()) return 0.0;
  return total_latency_ / static_cast<double>(request_user_.size());
}

double total_latency_seconds(const model::ProblemInstance& instance,
                             const AllocationProfile& allocation,
                             const DeliveryProfile& delivery,
                             bool collaborative) {
  DeliveryEvaluator evaluator(instance, allocation, delivery.shape(),
                              collaborative);
  for (std::size_t k = 0; k < delivery.data_count(); ++k) {
    for (const std::size_t i : delivery.hosts(k)) evaluator.commit(i, k);
  }
  return evaluator.total_latency_seconds();
}

}  // namespace idde::core
