#include "src/cluster/master.h"

#include <algorithm>

#include "src/cluster/kv_wire.h"
#include "src/cluster/stats_wire.h"
#include "src/common/logging.h"
#include "src/net/rpc_client.h"
#include "src/net/wire.h"

namespace tebis {
namespace {

constexpr char kElectionPath[] = "/master-election";
constexpr char kRegionMapPath[] = "/region_map";
// Recovery-intent journal: one znode per in-flight reconfiguration.
constexpr char kIntentsPath[] = "/recovery";
// Unilateral-detach records published by primaries (health policy, §3.5).
constexpr char kDetachedPath[] = "/detached";

std::string IntentPath(uint32_t region_id) {
  return std::string(kIntentsPath) + "/r" + std::to_string(region_id);
}

void EnsurePath(Coordinator* coordinator, const char* path) {
  if (!coordinator->Exists(path)) {
    (void)coordinator->Create(Coordinator::kNoSession, path, "", {});
  }
}

}  // namespace

Master::Master(Coordinator* coordinator, std::string name,
               std::map<std::string, RegionServer*> directory)
    : coordinator_(coordinator), name_(std::move(name)), directory_(std::move(directory)) {}

bool Master::IsLeader() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return leader_ && !failed_;
}

std::shared_ptr<const RegionMap> Master::current_map() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return map_;
}

void Master::set_step_hook(StepHook hook) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  step_hook_ = std::move(hook);
}

bool Master::Step(const std::string& point) {
  if (!step_hook_) {
    return true;
  }
  return step_hook_(point);
}

Status Master::Campaign() {
  session_ = coordinator_->CreateSession();
  if (!coordinator_->Exists(kElectionPath)) {
    (void)coordinator_->Create(Coordinator::kNoSession, kElectionPath, "", {});
  }
  TEBIS_RETURN_IF_ERROR(coordinator_->Create(session_, std::string(kElectionPath) + "/m-",
                                             name_,
                                             {.ephemeral = true, .sequential = true},
                                             &election_node_));
  // Leader check: am I the lowest sequence? Otherwise watch my predecessor.
  auto check = [this]() {
    auto children = coordinator_->List(kElectionPath);
    if (!children.ok() || children->empty()) {
      return;
    }
    const std::string mine = election_node_.substr(strlen(kElectionPath) + 1);
    std::sort(children->begin(), children->end());
    if (children->front() == mine) {
      OnBecameLeader();
      return;
    }
    // Watch the candidate immediately before us.
    auto it = std::lower_bound(children->begin(), children->end(), mine);
    const std::string predecessor = *(it - 1);
    coordinator_->Exists(std::string(kElectionPath) + "/" + predecessor,
                         [this](const WatchEvent& event) {
                           if (event.type == WatchEventType::kDeleted) {
                             RecheckLeadership();
                           }
                         });
  };
  recheck_ = check;
  check();
  return Status::Ok();
}

void Master::RecheckLeadership() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (failed_) {
    return;
  }
  if (recheck_) {
    recheck_();
  }
}

void Master::OnBecameLeader() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (leader_ || failed_) {
    return;
  }
  leader_ = true;
  TEBIS_LOG(kInfo) << "master " << name_ << " became leader";
  EnsurePath(coordinator_, kIntentsPath);
  EnsurePath(coordinator_, kDetachedPath);
  // Recover the map from the coordinator if a previous leader installed one,
  // then reconcile: first roll forward any reconfiguration the old leader
  // journaled but did not finish, then treat servers that are in the map but
  // no longer members as failed, then replace unilaterally detached replicas.
  auto stored = coordinator_->Get(kRegionMapPath);
  if (stored.ok()) {
    auto map = RegionMap::Deserialize(*stored);
    if (map.ok()) {
      map_ = std::make_shared<const RegionMap>(*map);
    }
  }
  ArmServerWatch();
  ArmDetachWatch();
  if (map_ != nullptr) {
    ResumeRecoveryIntents();
    HandleMembershipChange();
    ReconcileDetachRecords();
  }
}

void Master::ArmServerWatch() {
  (void)coordinator_->List("/servers", [this](const WatchEvent&) {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    if (!leader_ || failed_) {
      return;
    }
    ArmServerWatch();  // one-shot watches must be re-armed first
    HandleMembershipChange();
  });
}

void Master::ArmDetachWatch() {
  (void)coordinator_->List(kDetachedPath, [this](const WatchEvent&) {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    if (!leader_ || failed_) {
      return;
    }
    ArmDetachWatch();
    ReconcileDetachRecords();
  });
}

bool Master::ServerAlive(const std::string& name) const {
  return coordinator_->Exists("/servers/" + name);
}

void Master::HandleMembershipChange() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (map_ == nullptr) {
    return;
  }
  // Find servers referenced by the map that are gone.
  std::vector<std::string> failed;
  for (const auto& region : map_->regions()) {
    if (!ServerAlive(region.primary)) {
      failed.push_back(region.primary);
    }
    for (const auto& backup : region.backups) {
      if (!ServerAlive(backup)) {
        failed.push_back(backup);
      }
    }
  }
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  for (const auto& server : failed) {
    Status s = HandleServerFailure(server);
    if (!s.ok()) {
      TEBIS_LOG(kError) << "failure handling for " << server << ": " << s.ToString();
    }
  }
}

Status Master::HandleServerFailure(const std::string& failed) {
  TEBIS_LOG(kInfo) << "master " << name_ << " handling failure of " << failed;
  RegionMap updated = *map_;  // copy, then bump + publish
  std::vector<uint32_t> region_ids;
  for (const auto& region : updated.regions()) {
    region_ids.push_back(region.region_id);
  }
  // Primary failures first: promotion restores availability (§3.5). The
  // promotion leaves `failed` in the region's backup list so the second pass
  // replaces that replica like any other lost backup.
  std::vector<uint32_t> journaled;
  for (uint32_t id : region_ids) {
    if (updated.FindById(id)->primary == failed) {
      TEBIS_RETURN_IF_ERROR(HandlePrimaryFailure(&updated, id, failed));
      journaled.push_back(id);
    }
  }
  for (uint32_t id : region_ids) {
    const RegionInfo* region = updated.FindById(id);
    if (std::find(region->backups.begin(), region->backups.end(), failed) !=
        region->backups.end()) {
      TEBIS_RETURN_IF_ERROR(HandleBackupFailure(&updated, id, failed));
    }
  }
  updated.BumpVersion();
  TEBIS_RETURN_IF_ERROR(PushMap(updated));
  // The published map now reflects the new configurations; the intents are no
  // longer needed. (Deleting before the push would let a leader that dies in
  // between strand a half-finished failover.)
  for (uint32_t id : journaled) {
    DeleteIntent(id);
  }
  return Status::Ok();
}

StatusOr<std::string> Master::PickReplacement(const RegionInfo& region,
                                              const std::vector<std::string>& exclude) const {
  for (const auto& [name, server] : directory_) {
    if (!ServerAlive(name)) {
      continue;
    }
    if (name == region.primary) {
      continue;
    }
    if (std::find(region.backups.begin(), region.backups.end(), name) != region.backups.end()) {
      continue;
    }
    if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
      continue;
    }
    return name;
  }
  return Status::ResourceExhausted("no replacement server available");
}

Status Master::HandleBackupFailure(RegionMap* map, uint32_t region_id,
                                   const std::string& failed) {
  RegionInfo* region = map->MutableFindById(region_id);
  if (region == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  RegionServer* primary = directory_.at(region->primary);
  const uint64_t epoch = region->epoch + 1;
  // Stop replicating to the lost node immediately; the bumped epoch fences
  // it out should it come back with stale state.
  (void)primary->DetachBackup(region_id, failed, epoch);
  std::erase(region->backups, failed);
  // Revoke the read lease with the detach: clients must stop routing
  // reads to a replica the primary no longer replicates to.
  std::erase(region->read_leases, failed);
  // Replace the failed backup with a fresh node and transfer the region data
  // (§3.5: "the master instructs the rest of the region servers in the group
  // to transfer their region data to the new backup"). A replacement that
  // dies mid-transfer is skipped and the next candidate tried; `failed`
  // itself is excluded so a slow-but-alive detached replica is never chosen
  // as its own replacement.
  std::vector<std::string> tried = {failed};
  while (true) {
    auto replacement = PickReplacement(*region, tried);
    if (!replacement.ok()) {
      // Degraded but available: drop the replica.
      TEBIS_LOG(kWarn) << "region " << region_id << " degraded to " << region->backups.size()
                       << " backups: " << replacement.status().ToString();
      region->epoch = epoch;
      return Status::Ok();
    }
    tried.push_back(*replacement);
    RegionServer* new_backup = directory_.at(*replacement);
    Status s = new_backup->OpenBackupRegion(region_id, epoch);
    if (s.IsAlreadyExists()) {
      // Half-synced leftovers from a dead leader's attempt: start over.
      s = new_backup->CloseRegion(region_id);
      if (s.ok()) {
        s = new_backup->OpenBackupRegion(region_id, epoch);
      }
    }
    if (s.ok()) {
      s = primary->AttachBackupWithFullSync(region_id, new_backup, epoch);
    }
    if (s.ok()) {
      region->backups.push_back(*replacement);
      // The full sync completed, so the replacement is caught up: grant its
      // read lease in the same map push that announces it.
      region->read_leases.push_back(*replacement);
      region->epoch = epoch;
      return Status::Ok();
    }
    TEBIS_LOG(kWarn) << "replacement " << *replacement << " for region " << region_id
                     << " failed (" << s.ToString() << "); trying next candidate";
    (void)primary->DetachBackup(region_id, *replacement, epoch);
    (void)new_backup->CloseRegion(region_id);
  }
}

Status Master::HandlePrimaryFailure(RegionMap* map, uint32_t region_id,
                                    const std::string& failed) {
  RegionInfo* region = map->MutableFindById(region_id);
  if (region == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  if (region->backups.empty()) {
    return Status::Internal("region " + std::to_string(region_id) + " lost all replicas");
  }
  // Promote the first surviving backup.
  std::string promoted;
  for (const auto& backup : region->backups) {
    if (ServerAlive(backup)) {
      promoted = backup;
      break;
    }
  }
  if (promoted.empty()) {
    return Status::Internal("region " + std::to_string(region_id) + " lost all replicas");
  }
  // Journal the intent under the bumped epoch before mutating anything: if
  // this master dies mid-failover, the next leader resumes from here.
  const uint64_t epoch = region->epoch + 1;
  RecoveryIntent intent;
  intent.kind = RecoveryIntent::Kind::kPrimaryFailover;
  intent.region_id = region_id;
  intent.old_primary = failed;
  intent.new_primary = promoted;
  intent.epoch = epoch;
  TEBIS_RETURN_IF_ERROR(WriteIntent(intent));
  return ExecutePrimaryFailover(map, region_id, failed, promoted, epoch);
}

Status Master::ExecutePrimaryFailover(RegionMap* map, uint32_t region_id,
                                      const std::string& failed, const std::string& promoted,
                                      uint64_t epoch) {
  RegionInfo* region = map->MutableFindById(region_id);
  if (region == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  TEBIS_RETURN_IF_ERROR(
      PromoteAndReattach(*region, failed, promoted, "failover-promoted", epoch).status());
  // The new primary replays the unflushed buffer, replicated.
  TEBIS_RETURN_IF_ERROR(directory_.at(promoted)->ReplayPromotionBuffer(region_id));

  std::erase(region->backups, promoted);
  if (std::find(region->backups.begin(), region->backups.end(), failed) ==
      region->backups.end()) {
    region->backups.push_back(failed);  // now a (failed) backup slot: handled next
  }
  // Leases: the promoted server is the primary now, and the failed
  // server must never serve reads again; surviving backups re-attached above
  // kept their state and stay leased.
  std::erase(region->read_leases, promoted);
  std::erase(region->read_leases, failed);
  region->primary = promoted;
  region->epoch = epoch;
  return Status::Ok();
}

StatusOr<SegmentMap> Master::PromoteAndReattach(const RegionInfo& region,
                                                const std::string& old_primary,
                                                const std::string& new_primary,
                                                const std::string& failpoint, uint64_t epoch) {
  const uint32_t region_id = region.region_id;
  RegionServer* new_server = directory_.at(new_primary);
  SegmentMap new_primary_log_map;
  if (!new_server->IsPrimaryFor(region_id)) {
    TEBIS_RETURN_IF_ERROR(new_server->PromoteRegion(region_id, &new_primary_log_map, epoch));
  } else {
    // A previous leader already promoted this server; re-fetch the log map it
    // produced and continue from the re-attach step.
    TEBIS_ASSIGN_OR_RETURN(new_primary_log_map, new_server->GetPromotionLogMap(region_id));
  }
  if (!Step(failpoint + ":" + std::to_string(region_id))) {
    return Status::Unavailable("master died at failpoint " + failpoint);
  }
  // Remaining backups re-key their log maps (§3.2) and re-attach to the new
  // primary. Every step is an equal-epoch no-op when a resumed intent
  // repeats it.
  for (const auto& backup : region.backups) {
    if (backup == new_primary || backup == old_primary || !ServerAlive(backup)) {
      continue;
    }
    RegionServer* server = directory_.at(backup);
    TEBIS_RETURN_IF_ERROR(server->AdoptNewPrimaryLogMap(region_id, new_primary_log_map, epoch));
    TEBIS_RETURN_IF_ERROR(new_server->AttachBackup(region_id, server, epoch));
  }
  return new_primary_log_map;
}

Status Master::WriteIntent(const RecoveryIntent& intent) {
  EnsurePath(coordinator_, kIntentsPath);
  WireWriter w;
  w.U8(static_cast<uint8_t>(intent.kind))
      .U32(intent.region_id)
      .Bytes(intent.old_primary)
      .Bytes(intent.new_primary)
      .U64(intent.epoch);
  const std::string path = IntentPath(intent.region_id);
  if (coordinator_->Exists(path)) {
    return coordinator_->Set(path, w.str());
  }
  return coordinator_->Create(Coordinator::kNoSession, path, w.str(), {});
}

void Master::DeleteIntent(uint32_t region_id) {
  (void)coordinator_->Delete(Coordinator::kNoSession, IntentPath(region_id));
}

void Master::ResumeRecoveryIntents() {
  auto children = coordinator_->List(kIntentsPath);
  if (!children.ok() || children->empty() || map_ == nullptr) {
    return;
  }
  for (const auto& child : *children) {
    const std::string path = std::string(kIntentsPath) + "/" + child;
    auto data = coordinator_->Get(path);
    if (!data.ok()) {
      continue;
    }
    WireReader r{Slice(*data)};
    uint8_t kind = 0;
    RecoveryIntent intent;
    if (!r.U8(&kind).ok() || !r.U32(&intent.region_id).ok() ||
        !r.Bytes(&intent.old_primary).ok() || !r.Bytes(&intent.new_primary).ok() ||
        !r.U64(&intent.epoch).ok()) {
      TEBIS_LOG(kError) << "malformed recovery intent " << child << "; deleting";
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
      continue;
    }
    intent.kind = static_cast<RecoveryIntent::Kind>(kind);
    if (!ServerAlive(intent.new_primary)) {
      // The chosen server died too; abandon the intent — the membership pass
      // that follows redoes recovery from scratch under a fresh epoch.
      TEBIS_LOG(kWarn) << "abandoning intent " << child << ": promoted server "
                       << intent.new_primary << " is gone";
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
      continue;
    }
    TEBIS_LOG(kInfo) << "master " << name_ << " resuming recovery intent " << child
                     << " (epoch " << intent.epoch << ")";
    RegionMap updated = *map_;
    Status s;
    if (intent.kind == RecoveryIntent::Kind::kMovePrimary) {
      s = ExecuteMovePrimary(&updated, intent.region_id, intent.old_primary,
                             intent.new_primary, intent.epoch);
    } else {
      s = ExecutePrimaryFailover(&updated, intent.region_id, intent.old_primary,
                                 intent.new_primary, intent.epoch);
    }
    if (s.ok()) {
      updated.BumpVersion();
      s = PushMap(updated);
    }
    if (s.ok()) {
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
    } else {
      TEBIS_LOG(kError) << "resume of intent " << child << ": " << s.ToString();
    }
  }
}

void Master::ReconcileDetachRecords() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (map_ == nullptr) {
    return;
  }
  auto children = coordinator_->List(kDetachedPath);
  if (!children.ok()) {
    return;
  }
  for (const auto& child : *children) {
    const std::string path = std::string(kDetachedPath) + "/" + child;
    auto data = coordinator_->Get(path);
    if (!data.ok()) {
      continue;
    }
    WireReader r{Slice(*data)};
    uint32_t region_id = 0;
    std::string backup_name;
    uint64_t detach_epoch = 0;
    std::string primary_name;
    uint32_t stream = 0;  // shipping stream that struck out
    if (!r.U32(&region_id).ok() || !r.Bytes(&backup_name).ok() || !r.U64(&detach_epoch).ok() ||
        !r.Bytes(&primary_name).ok() || !r.U32(&stream).ok()) {
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
      continue;
    }
    RegionMap updated = *map_;
    RegionInfo* region = updated.MutableFindById(region_id);
    if (region == nullptr || detach_epoch < region->epoch ||
        std::find(region->backups.begin(), region->backups.end(), backup_name) ==
            region->backups.end()) {
      // Stale record: a newer configuration already superseded the detach.
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
      continue;
    }
    TEBIS_LOG(kInfo) << "master " << name_ << " reconciling unilateral detach of "
                     << backup_name << " from region " << region_id << " (stream "
                     << stream << ")";
    // The primary already dropped the replica; replace it like a failed
    // backup (the stalled server is excluded as its own replacement).
    Status s = HandleBackupFailure(&updated, region_id, backup_name);
    if (s.ok()) {
      updated.BumpVersion();
      s = PushMap(updated);
    }
    if (s.ok()) {
      (void)coordinator_->Delete(Coordinator::kNoSession, path);
    } else {
      TEBIS_LOG(kError) << "reconciling detach record " << child << ": " << s.ToString();
    }
  }
}

Status Master::PushMap(const RegionMap& map) {
  auto shared = std::make_shared<const RegionMap>(map);
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    map_ = shared;
  }
  const std::string serialized = map.Serialize();
  if (coordinator_->Exists(kRegionMapPath)) {
    TEBIS_RETURN_IF_ERROR(coordinator_->Set(kRegionMapPath, serialized));
  } else {
    TEBIS_RETURN_IF_ERROR(
        coordinator_->Create(Coordinator::kNoSession, kRegionMapPath, serialized, {}));
  }
  for (auto& [name, server] : directory_) {
    if (ServerAlive(name)) {
      server->SetRegionMap(shared);
    }
  }
  return Status::Ok();
}

Status Master::Bootstrap(const RegionMap& map) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!leader_) {
    return Status::FailedPrecondition("only the leader bootstraps");
  }
  for (const auto& region : map.regions()) {
    auto primary_it = directory_.find(region.primary);
    if (primary_it == directory_.end()) {
      return Status::NotFound("unknown server " + region.primary);
    }
    TEBIS_RETURN_IF_ERROR(
        primary_it->second->OpenPrimaryRegion(region.region_id, region.epoch));
    for (const auto& backup : region.backups) {
      auto backup_it = directory_.find(backup);
      if (backup_it == directory_.end()) {
        return Status::NotFound("unknown server " + backup);
      }
      TEBIS_RETURN_IF_ERROR(backup_it->second->OpenBackupRegion(region.region_id, region.epoch));
      TEBIS_RETURN_IF_ERROR(primary_it->second->AttachBackup(region.region_id,
                                                             backup_it->second, region.epoch));
    }
  }
  return PushMap(map);
}

Status Master::MovePrimary(uint32_t region_id, const std::string& new_primary) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!leader_) {
    return Status::FailedPrecondition("only the leader balances load");
  }
  if (map_ == nullptr) {
    return Status::FailedPrecondition("no region map installed");
  }
  RegionMap updated = *map_;
  RegionInfo* region = updated.MutableFindById(region_id);
  if (region == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  if (region->primary == new_primary) {
    return Status::Ok();
  }
  if (std::find(region->backups.begin(), region->backups.end(), new_primary) ==
      region->backups.end()) {
    return Status::InvalidArgument(new_primary + " is not a backup of the region");
  }
  if (!ServerAlive(region->primary) || !ServerAlive(new_primary)) {
    return Status::Unavailable("both ends of the handover must be alive");
  }
  const std::string old_primary = region->primary;
  RegionServer* old_server = directory_.at(old_primary);

  // 1) Seal the log so the backup holds everything (acked data is already in
  //    its buffer; the flush also persists and maps it).
  TEBIS_RETURN_IF_ERROR(old_server->FlushRegionTail(region_id));
  // 2) Journal the handover before the first irreversible step; a standby
  //    taking over mid-move rolls it forward.
  const uint64_t epoch = region->epoch + 1;
  RecoveryIntent intent;
  intent.kind = RecoveryIntent::Kind::kMovePrimary;
  intent.region_id = region_id;
  intent.old_primary = old_primary;
  intent.new_primary = new_primary;
  intent.epoch = epoch;
  TEBIS_RETURN_IF_ERROR(WriteIntent(intent));
  TEBIS_RETURN_IF_ERROR(
      ExecuteMovePrimary(&updated, region_id, old_primary, new_primary, epoch));
  updated.BumpVersion();
  TEBIS_RETURN_IF_ERROR(PushMap(updated));
  DeleteIntent(region_id);
  return Status::Ok();
}

Status Master::ExecuteMovePrimary(RegionMap* map, uint32_t region_id,
                                  const std::string& old_primary,
                                  const std::string& new_primary, uint64_t epoch) {
  RegionInfo* region = map->MutableFindById(region_id);
  if (region == nullptr) {
    return Status::NotFound("region " + std::to_string(region_id));
  }
  RegionServer* old_server = directory_.at(old_primary);
  RegionServer* new_server = directory_.at(new_primary);

  // Promote the chosen backup under the bumped epoch. From this instant the
  // old primary is fenced: the promoted buffer rejects its one-sided writes,
  // so a write racing the handover fails un-acked and the client retries
  // against the refreshed map.
  TEBIS_ASSIGN_OR_RETURN(
      const SegmentMap new_primary_log_map,
      PromoteAndReattach(*region, old_primary, new_primary, "move-promoted", epoch));
  // Demote the old primary to a backup. A write that raced the handover may
  // have landed in its tail after the seal; it was never acked (the promoted
  // buffer fenced its replication), so when the demotion refuses the dirty
  // tail the old engine is simply discarded and rebuilt with a full sync.
  bool old_resynced = false;
  if (ServerAlive(old_primary) && old_server->IsPrimaryFor(region_id)) {
    Status s = old_server->DemoteRegion(region_id, new_primary_log_map, epoch);
    if (s.IsFailedPrecondition()) {
      TEBIS_RETURN_IF_ERROR(old_server->CloseRegion(region_id));
      TEBIS_RETURN_IF_ERROR(old_server->OpenBackupRegion(region_id, epoch));
      TEBIS_RETURN_IF_ERROR(new_server->AttachBackupWithFullSync(region_id, old_server, epoch));
      old_resynced = true;
    } else if (!s.ok()) {
      return s;
    }
  }
  if (!old_resynced && ServerAlive(old_primary)) {
    TEBIS_RETURN_IF_ERROR(new_server->AttachBackup(region_id, old_server, epoch));
  }
  // Replay the promotion buffer through the new primary (replicated).
  TEBIS_RETURN_IF_ERROR(new_server->ReplayPromotionBuffer(region_id));

  std::erase(region->backups, new_primary);
  std::erase(region->read_leases, new_primary);
  if (ServerAlive(old_primary) &&
      std::find(region->backups.begin(), region->backups.end(), old_primary) ==
          region->backups.end()) {
    region->backups.push_back(old_primary);
    // Leased immediately: whether it demoted cleanly or was rebuilt
    // with a full sync, the old primary holds the complete region state.
    region->read_leases.push_back(old_primary);
  }
  region->primary = new_primary;
  region->epoch = epoch;
  return Status::Ok();
}

void Master::Fail() {
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    failed_ = true;
    leader_ = false;
  }
  coordinator_->ExpireSession(session_);
}

// --- metrics federation --------------------------------------------

void Master::set_scrape_fetcher(ClusterScraper::FetchFn fetch) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  scrape_fetch_ = std::move(fetch);
}

StatusOr<std::string> Master::FetchNodeScrape(const std::string& server) {
  RegionServer* rs = nullptr;
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    auto it = directory_.find(server);
    if (it == directory_.end()) {
      return Status::NotFound("unknown server " + server);
    }
    rs = it->second;
  }
  if (rs->crashed()) {
    return Status::Unavailable(server + " crashed");
  }
  // A fresh connection per round keeps the fetch stateless across server
  // restarts; scrape pacing makes the setup cost irrelevant.
  RpcClient client(rs->fabric(), name_ + ">scrape>" + server, rs->client_endpoint(),
                   kDefaultConnectionBufferSize);
  const std::string request = EncodeScrapeRequest(kScrapeFormatBinary);
  size_t alloc = 16384;
  for (int attempt = 0; attempt < 3; ++attempt) {
    TEBIS_ASSIGN_OR_RETURN(RpcReply reply, client.Call(MessageType::kStatsScrape, 0, request,
                                                       alloc, /*map_version=*/0));
    if (reply.header.flags & kFlagTruncatedReply) {
      uint64_t needed;
      TEBIS_RETURN_IF_ERROR(DecodeTruncatedReply(reply.payload, &needed));
      alloc = needed + 64;
      continue;
    }
    if (reply.header.flags & kFlagError) {
      return Status::Internal(server + " rejected scrape: " + reply.payload);
    }
    return std::move(reply.payload);
  }
  return Status::Unavailable(server + "'s scrape kept outgrowing the allocation");
}

StatusOr<ClusterScraper*> Master::EnsureScraper(uint64_t period_ms) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (scraper_ != nullptr) {
    return scraper_.get();
  }
  if (!leader_ || failed_) {
    return Status::FailedPrecondition("not the leader");
  }
  std::vector<std::string> servers;
  servers.reserve(directory_.size());
  for (const auto& [server, unused] : directory_) {
    servers.push_back(server);
  }
  ClusterScraper::FetchFn fetch = scrape_fetch_;
  if (fetch == nullptr) {
    fetch = [this](const std::string& server) { return FetchNodeScrape(server); };
  }
  ClusterScraper::Options options;
  options.period_ms = period_ms;
  scraper_ = std::make_unique<ClusterScraper>(std::move(servers), std::move(fetch), options);
  return scraper_.get();
}

Status Master::ScrapeCluster() {
  TEBIS_ASSIGN_OR_RETURN(ClusterScraper * scraper, EnsureScraper());
  // Unlocked: the fan-out RPCs must not run under the master mutex.
  return scraper->ScrapeOnce();
}

Status Master::EnableClusterScrape(uint64_t period_ms) {
  TEBIS_ASSIGN_OR_RETURN(ClusterScraper * scraper, EnsureScraper(period_ms));
  scraper->Start();
  return Status::Ok();
}

void Master::DisableClusterScrape() {
  ClusterScraper* scraper;
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    scraper = scraper_.get();
  }
  if (scraper != nullptr) {
    scraper->Stop();
  }
}

std::string Master::ClusterStatsJson() const {
  const ClusterScraper* scraper;
  {
    std::lock_guard<std::recursive_mutex> lock(mutex_);
    scraper = scraper_.get();
  }
  return scraper == nullptr ? "" : scraper->ClusterJson();
}

}  // namespace tebis
