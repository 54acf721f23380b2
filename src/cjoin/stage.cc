#include "cjoin/stage.h"

#include <algorithm>

#include "cjoin/query_runtime.h"
#include "common/bitvector.h"
#include "common/mutex.h"
#include "obs/flight_recorder.h"

namespace cjoin {

Stage::Stage(std::string name, const Schema* fact_schema, size_t num_dims,
             size_t width_words, std::shared_ptr<const FilterOrder> filters,
             BatchQueue* in, BatchQueue* out, bool owns_output,
             TuplePool* pool, EpochTracker* epochs)
    : name_(std::move(name)),
      fact_schema_(fact_schema),
      num_dims_(num_dims),
      width_(width_words),
      order_(std::move(filters)),
      in_(in),
      out_(out),
      owns_output_(owns_output),
      pool_(pool),
      epochs_(epochs) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string label = obs::LabelPair("stage", name_);
  batch_ns_ = reg.GetHistogram("cjoin_stage_batch_ns",
                               "Per-batch filter time by pipeline stage",
                               label);
  tuples_dropped_ = reg.GetCounter(
      "cjoin_stage_tuples_dropped_total",
      "Fact tuples dropped by a stage's filters", label);
}

void Stage::Start(size_t num_threads) {
  live_workers_.store(num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    // The worker's flight-recorder track name; fixed here so the loop
    // never touches threads_ concurrently with this emplacing loop.
    std::string track = thread_label_.empty() ? name_ : thread_label_;
    if (num_threads > 1) track += "." + std::to_string(i);
    threads_.emplace_back(
        [this, track = std::move(track)] { WorkerLoop(track); });
  }
}

void Stage::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

size_t Stage::FilterBatch(TupleBatch* batch, const FilterOrder& filters) {
  size_t live = batch->slots.size();
  TupleSlot** slots = batch->slots.data();
  const size_t probe_batch = std::min(probe_batch_, kGatherCap);

  for (Filter* f : filters) {
    if (live == 0) break;
    const size_t in_before = live;
    DimensionHashTable* table = f->table.get();
    const uint64_t* comp = table->complement();
    const size_t dim_index = f->dim_index;
    const Column& fk = fact_schema_->column(f->fact_fk_col);
    const uint32_t fk_offset = fk.offset;
    const bool fk_is_i32 = fk.type == DataType::kInt32;

    // Hold the shared lock for the whole batch: entry pointers stay valid
    // and the per-probe cost is one uncontended atomic in the common case.
    ReaderMutexLock lk(&table->mutex());

    if (probe_batch <= 1) {
      // Scalar arm (probe_batch_size=1): one table probe per tuple, each
      // eating its full memory latency. Kept as the A/B reference for
      // bench_dim_probe and the byte-identity tests.
      size_t i = 0;
      while (i < live) {
        TupleSlot* slot = slots[i];
        uint64_t* bits = slot->bits(num_dims_);

        // Probe-skipping optimization (§3.2.2): if every query this tuple
        // is still relevant to ignores D_j, the filtering vector is
        // all-ones on those bits — skip the probe.
        uint64_t relevant = 0;
        for (size_t w = 0; w < width_; ++w) {
          relevant |= bits[w] & ~bitops::AtomicLoadWord(comp, w);
        }
        if (relevant == 0) {
          ++i;
          continue;
        }

        const int64_t key = LoadFkKey(slot->fact_row, fk_offset, fk_is_i32);
        const DimensionHashTable::Entry* entry = table->ProbeLocked(key);
        const uint64_t* filter_vec = entry != nullptr ? entry->bits : comp;
        const bool alive =
            bitops::AndIntoAtomicSrc(bits, filter_vec, width_);
        if (entry != nullptr) {
          slot->dim_rows()[dim_index] = entry->row;
        }
        if (alive) {
          ++i;
        } else {
          // Dead tuple: release and compact.
          pool_->Release(slot);
          slots[i] = slots[live - 1];
          --live;
        }
      }
    } else {
      // Batched arm: gather -> batch-probe -> resolve. The gather pass
      // applies the §3.2.2 probe-skip test and collects the keys of the
      // tuples that do need a probe; ProbeBatchLocked then overlaps all
      // their bucket fetches via software prefetch; the resolve pass ANDs
      // filtering vectors and compacts. Survivor multiset (and therefore
      // every query result) is identical to the scalar arm — only the
      // within-batch order of survivors differs, which aggregation is
      // insensitive to.
      TupleSlot* cand[kGatherCap];
      int64_t keys[kGatherCap];
      const DimensionHashTable::Entry* ents[kGatherCap];
      size_t out = 0;  // surviving-slot write cursor (always <= read pos)
      size_t r = 0;
      while (r < live) {
        size_t m = 0;
        while (r < live && m < probe_batch) {
          TupleSlot* slot = slots[r++];
          uint64_t* bits = slot->bits(num_dims_);
          uint64_t relevant = 0;
          for (size_t w = 0; w < width_; ++w) {
            relevant |= bits[w] & ~bitops::AtomicLoadWord(comp, w);
          }
          if (relevant == 0) {
            // Probe skipped: the tuple survives this filter unchanged.
            slots[out++] = slot;
            continue;
          }
          keys[m] = LoadFkKey(slot->fact_row, fk_offset, fk_is_i32);
          cand[m++] = slot;
        }
        table->ProbeBatchLocked(keys, ents, m);
        for (size_t j = 0; j < m; ++j) {
          TupleSlot* slot = cand[j];
          uint64_t* bits = slot->bits(num_dims_);
          const DimensionHashTable::Entry* entry = ents[j];
          const uint64_t* filter_vec = entry != nullptr ? entry->bits : comp;
          const bool alive =
              bitops::AndIntoAtomicSrc(bits, filter_vec, width_);
          if (entry != nullptr) {
            slot->dim_rows()[dim_index] = entry->row;
          }
          if (alive) {
            slots[out++] = slot;
          } else {
            pool_->Release(slot);
          }
        }
      }
      live = out;
    }

    f->tuples_in.fetch_add(in_before, std::memory_order_relaxed);
    f->tuples_dropped.fetch_add(in_before - live,
                                std::memory_order_relaxed);
  }

  const size_t dropped = batch->slots.size() - live;
  batch->slots.resize(live);
  return dropped;
}

void Stage::WorkerLoop(const std::string& track) {
  obs::RegisterThread(track);
  for (;;) {
    // Sleep/wake events bracket the blocking pop: the dump pairs each
    // wake with the following sleep into a "busy" timeline slice.
    obs::RecordEvent(obs::EventKind::kStageSleep, track.c_str());
    std::optional<TupleBatch> popped = in_->Pop();
    if (!popped.has_value()) break;  // closed and drained
    TupleBatch batch = std::move(*popped);
    obs::RecordEvent(obs::EventKind::kStageWake, track.c_str(),
                     static_cast<uint32_t>(batch.slots.size()));
    batches_.fetch_add(1, std::memory_order_relaxed);

    if (batch.control) {
      // Control tuples pass through unfiltered (§3.3.1). The query's own
      // start/end controls passing this stage bound its `stage:` span.
      if (!batch.slots.empty()) {
        TupleSlot* slot = batch.slots[0];
        QueryRuntime* rt = slot->runtime;
        if (rt != nullptr && rt->trace != nullptr) {
          const std::string label = rt->trace_prefix + name_;
          if (slot->kind == SlotKind::kQueryStart) {
            rt->trace->BeginSpan(obs::SpanKind::kStage, label.c_str(),
                                 obs::NowNs());
          } else if (slot->kind == SlotKind::kQueryEnd) {
            rt->trace->EndSpan(obs::SpanKind::kStage, label.c_str(),
                               obs::NowNs());
          }
        }
      }
      // Push destroys the moved-from batch on a closed queue, so capture
      // the slot pointers first and return them to the pool on failure.
      // Control slots are not epoch-counted (EmitControl closes the epoch
      // before the control tuple enters the pipeline), so unlike the
      // data path below there is no AddRetired to balance here.
      TupleSlot* const ctrl_slot =
          batch.slots.empty() ? nullptr : batch.slots[0];
      if (!out_->Push(std::move(batch))) {
        if (ctrl_slot != nullptr) pool_->Release(ctrl_slot);
        break;
      }
      continue;
    }

    const int64_t t0 = obs::MetricsEnabled() ? obs::NowNs() : 0;
    std::shared_ptr<const FilterOrder> order = order_.Acquire();
    const size_t dropped = FilterBatch(&batch, *order);
    if (t0 != 0) {
      batch_ns_->Record(static_cast<uint64_t>(obs::NowNs() - t0));
      if (dropped > 0) tuples_dropped_->Add(dropped);
    }
    if (dropped > 0) epochs_->AddRetired(batch.epoch, dropped);
    if (!batch.slots.empty()) {
      const uint64_t epoch = batch.epoch;
      const size_t n = batch.slots.size();
      if (!out_->Push(std::move(batch))) {
        // Downstream closed during shutdown; balance the accounting.
        epochs_->AddRetired(epoch, n);
        break;
      }
    }
  }
  if (live_workers_.fetch_sub(1) == 1 && owns_output_) {
    out_->Close();
  }
}

}  // namespace cjoin
