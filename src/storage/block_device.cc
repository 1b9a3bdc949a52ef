#include "src/storage/block_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace tebis {
namespace {

// Sleep in chunks of at least this much accumulated debt to avoid paying timer
// granularity on every small transfer.
constexpr uint64_t kMinSleepNs = 100 * 1000;

}  // namespace

StatusOr<std::unique_ptr<BlockDevice>> BlockDevice::Create(const BlockDeviceOptions& options) {
  SegmentGeometry geometry(options.segment_size);
  if (!geometry.IsValid()) {
    return Status::InvalidArgument("segment_size must be a positive power of two");
  }
  if (options.max_segments == 0) {
    return Status::InvalidArgument("max_segments must be > 0");
  }
  std::unique_ptr<BlockDevice> device(new BlockDevice(options));
  TEBIS_RETURN_IF_ERROR(device->Init());
  return device;
}

BlockDevice::BlockDevice(const BlockDeviceOptions& options)
    : options_(options), geometry_(options.segment_size) {}

Status BlockDevice::Init() {
  if (!options_.backing_file.empty()) {
    const int flags = O_CREAT | O_RDWR | (options_.reopen_existing ? 0 : O_TRUNC);
    fd_ = open(options_.backing_file.c_str(), flags, 0644);
    if (fd_ < 0) {
      return Status::IoError("open " + options_.backing_file + ": " + strerror(errno));
    }
  }
  return Status::Ok();
}

Status BlockDevice::AdoptAllocated(const std::vector<SegmentId>& segments) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (SegmentId segment : segments) {
    if (segment >= options_.max_segments) {
      return Status::OutOfRange("segment beyond device capacity");
    }
    if (segment < allocated_.size() && allocated_[segment]) {
      return Status::AlreadyExists("segment " + std::to_string(segment) + " already allocated");
    }
  }
  for (SegmentId segment : segments) {
    if (segment >= allocated_.size()) {
      allocated_.resize(segment + 1, false);
    }
    if (segment >= segments_.size()) {
      segments_.resize(segment + 1);
    }
    allocated_[segment] = true;
    if (segment >= next_segment_) {
      next_segment_ = segment + 1;
    }
  }
  return Status::Ok();
}

BlockDevice::~BlockDevice() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

StatusOr<SegmentId> BlockDevice::AllocateSegment() {
  std::lock_guard<std::mutex> lock(mutex_);
  SegmentId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    if (next_segment_ >= options_.max_segments) {
      return Status::ResourceExhausted("device full: " + std::to_string(next_segment_) +
                                       " segments");
    }
    id = next_segment_++;
  }
  if (id >= allocated_.size()) {
    allocated_.resize(id + 1, false);
  }
  if (id >= segments_.size()) {
    segments_.resize(id + 1);
  }
  allocated_[id] = true;
  return id;
}

Status BlockDevice::FreeSegment(SegmentId segment) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment >= allocated_.size() || !allocated_[segment]) {
    return Status::InvalidArgument("free of unallocated segment " + std::to_string(segment));
  }
  allocated_[segment] = false;
  segments_[segment].reset();  // drop the backing memory
  free_list_.push_back(segment);
  return Status::Ok();
}

bool BlockDevice::IsAllocated(SegmentId segment) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segment < allocated_.size() && allocated_[segment];
}

uint64_t BlockDevice::AllocatedSegments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (bool a : allocated_) {
    n += a ? 1 : 0;
  }
  return n;
}

StatusOr<BlockDevice::SegmentImage> BlockDevice::PinImage(uint64_t device_offset,
                                                          size_t n) const {
  const SegmentId segment = geometry_.SegmentOf(device_offset);
  if (n == 0) {
    return Status::InvalidArgument("zero-length transfer");
  }
  if (geometry_.OffsetInSegment(device_offset) + n > geometry_.segment_size()) {
    return Status::InvalidArgument("transfer crosses a segment boundary");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment >= allocated_.size() || !allocated_[segment]) {
    return Status::InvalidArgument("I/O to unallocated segment " + std::to_string(segment));
  }
  return ImageLocked(segment);
}

BlockDevice::SegmentImage BlockDevice::ImageLocked(SegmentId segment) const {
  SegmentImage& image = segments_[segment];
  if (image == nullptr && fd_ >= 0 && options_.reopen_existing) {
    // Fault the segment image from the backing file (short reads leave
    // zeros — the file may end before segments that were never written).
    std::shared_ptr<char[]> faulted(new char[geometry_.segment_size()]());
    ssize_t r = pread(fd_, faulted.get(), geometry_.segment_size(),
                      static_cast<off_t>(geometry_.BaseOffset(segment)));
    (void)r;
    image = std::move(faulted);
  }
  return image;
}

Status BlockDevice::ReplaceImage(SegmentId segment,
                                 const std::function<void(char* image)>& edit) const {
  const uint64_t size = geometry_.segment_size();
  for (;;) {
    TEBIS_ASSIGN_OR_RETURN(SegmentImage old, PinImage(geometry_.BaseOffset(segment), 1));
    std::shared_ptr<char[]> image(new char[size]);
    if (old != nullptr) {
      memcpy(image.get(), old.get(), size);
    } else {
      memset(image.get(), 0, size);
    }
    edit(image.get());
    std::lock_guard<std::mutex> lock(mutex_);
    if (!allocated_[segment]) {
      return Status::InvalidArgument("I/O to unallocated segment " + std::to_string(segment));
    }
    if (segments_[segment] == old) {
      segments_[segment] = std::move(image);
      return Status::Ok();
    }
    // Another write installed an image meanwhile: redo the edit on top of it.
  }
}

void BlockDevice::Throttle(bool is_write, size_t n) const {
  if (!options_.cost_model.Enabled()) {
    return;
  }
  const auto& cm = options_.cost_model;
  const uint64_t bw = is_write ? cm.write_bandwidth_bytes_per_sec : cm.read_bandwidth_bytes_per_sec;
  const uint64_t lat = is_write ? cm.write_latency_ns_per_op : cm.read_latency_ns_per_op;
  uint64_t cost_ns = lat;
  if (bw != 0) {
    cost_ns += static_cast<uint64_t>(n) * 1000000000ull / bw;
  }
  if (cm.hard_cap) {
    // Single-queue device: reserve the next slot on this device's timeline
    // and wait for it, so the aggregate rate stays capped under concurrency.
    uint64_t wake_ns;
    const uint64_t now_ns = NowNanos();
    {
      std::lock_guard<std::mutex> lock(throttle_mutex_);
      uint64_t& available = is_write ? write_available_ns_ : read_available_ns_;
      available = std::max(available, now_ns) + cost_ns;
      wake_ns = available;
    }
    if (wake_ns > now_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake_ns - now_ns));
    }
    return;
  }
  uint64_t to_sleep = 0;
  {
    std::lock_guard<std::mutex> lock(throttle_mutex_);
    uint64_t& debt = is_write ? write_debt_ns_ : read_debt_ns_;
    debt += cost_ns;
    if (debt >= kMinSleepNs) {
      to_sleep = debt;
      debt = 0;
    }
  }
  if (to_sleep > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(to_sleep));
  }
}

uint64_t BlockDevice::AccountedBytes(size_t n) const {
  const uint64_t g = options_.accounting_granularity;
  if (g <= 1) {
    return n;
  }
  return (n + g - 1) / g * g;
}

Status BlockDevice::Write(uint64_t device_offset, Slice data, IoClass io_class) {
  // An invalid transfer fails before the fault hook counts it.
  TEBIS_RETURN_IF_ERROR(PinImage(device_offset, data.size()).status());
  size_t apply = data.size();
  if (fault_hook_ != nullptr) {
    const uint64_t seq = write_seq_.fetch_add(1, std::memory_order_relaxed);
    BlockDeviceFaultHook::WriteDecision decision = fault_hook_->OnDeviceWrite(options_.name, seq);
    if (decision.take_snapshot) {
      TEBIS_ASSIGN_OR_RETURN(crash_snapshot_, CloneContents());
    }
    if (!decision.status.ok()) {
      return decision.status;
    }
    apply = std::min(apply, decision.keep_bytes);
  }
  if (apply > 0) {
    const uint64_t in_segment = geometry_.OffsetInSegment(device_offset);
    TEBIS_RETURN_IF_ERROR(ReplaceImage(geometry_.SegmentOf(device_offset), [&](char* image) {
      memcpy(image + in_segment, data.data(), apply);
    }));
  }
  if (fd_ >= 0 && apply > 0) {
    ssize_t w = pwrite(fd_, data.data(), apply, static_cast<off_t>(device_offset));
    if (w != static_cast<ssize_t>(apply)) {
      return Status::IoError("pwrite: " + std::string(strerror(errno)));
    }
  }
  const uint64_t accounted = AccountedBytes(apply);
  if (accounted > 0) {
    stats_.AddWrite(io_class, accounted);
    Throttle(/*is_write=*/true, accounted);
  }
  if (apply < data.size()) {
    return Status::IoError("torn write injected: " + std::to_string(apply) + " of " +
                           std::to_string(data.size()) + " bytes reached device " + options_.name);
  }
  return Status::Ok();
}

void BlockDevice::ApplyBitFlips(const std::vector<BlockDeviceFaultHook::BitFlip>& flips) const {
  for (const auto& flip : flips) {
    char flipped = 0;
    Status burned = ReplaceImage(geometry_.SegmentOf(flip.offset), [&](char* image) {
      char* byte = image + geometry_.OffsetInSegment(flip.offset);
      *byte = static_cast<char>(static_cast<uint8_t>(*byte) ^ flip.mask);
      flipped = *byte;
    });
    if (burned.ok() && fd_ >= 0) {
      ssize_t w = pwrite(fd_, &flipped, 1, static_cast<off_t>(flip.offset));
      (void)w;
    }
  }
}

Status BlockDevice::Read(uint64_t device_offset, size_t n, char* out, IoClass io_class) const {
  TEBIS_ASSIGN_OR_RETURN(SegmentImage image, PinImage(device_offset, n));
  if (fault_hook_ != nullptr) {
    const uint64_t seq = read_seq_.fetch_add(1, std::memory_order_relaxed);
    BlockDeviceFaultHook::ReadDecision decision =
        fault_hook_->OnDeviceRead(options_.name, seq, device_offset, n);
    if (!decision.image_flips.empty()) {
      ApplyBitFlips(decision.image_flips);
      TEBIS_ASSIGN_OR_RETURN(image, PinImage(device_offset, n));  // serve the damage
    }
    if (!decision.status.ok()) {
      return decision.status;
    }
  }
  if (image != nullptr) {
    memcpy(out, image.get() + geometry_.OffsetInSegment(device_offset), n);
  } else {
    memset(out, 0, n);
  }
  const uint64_t accounted = AccountedBytes(n);
  stats_.AddRead(io_class, accounted);
  Throttle(/*is_write=*/false, accounted);
  return Status::Ok();
}

StatusOr<std::unique_ptr<BlockDevice>> BlockDevice::CloneContents() const {
  BlockDeviceOptions clone_options = options_;
  clone_options.backing_file.clear();
  clone_options.reopen_existing = false;
  if (!clone_options.name.empty()) {
    clone_options.name += ".snapshot";
  }
  std::unique_ptr<BlockDevice> clone(new BlockDevice(clone_options));
  TEBIS_RETURN_IF_ERROR(clone->Init());
  std::lock_guard<std::mutex> lock(mutex_);
  clone->segments_.resize(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) {
    // Images are immutable, so the clone shares them. A file-backed segment
    // not yet resident is faulted in for the clone.
    clone->segments_[i] =
        i < allocated_.size() && allocated_[i] ? ImageLocked(i) : segments_[i];
  }
  // Allocation state deliberately left clean (nothing allocated, next id 0):
  // the clone behaves like a freshly reopened device whose owners must adopt
  // their segments before use — KvStore::Recover runs on it unchanged.
  return clone;
}

}  // namespace tebis
