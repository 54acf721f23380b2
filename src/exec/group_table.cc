#include "exec/group_table.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/hash.h"

namespace cjoin {

namespace {

constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kTagMask = 0xffffffff00000000ULL;
constexpr uint64_t kIndexMask = 0x00000000ffffffffULL;
constexpr size_t kInitialSlots = 64;

// MIN/MAX state: [tag][payload...]. The tag says which payload the state
// holds (none yet, an int64, a double, or CHAR bytes).
constexpr uint64_t kNone = 0;
constexpr uint64_t kIntTag = 1;
constexpr uint64_t kDoubleTag = 2;
constexpr uint64_t kCharTag = 3;

// SUM/AVG state words. The running state is the same for both, so
// partial states merge exactly: AVG divides only in Finish.
constexpr size_t kCount = 0;
constexpr size_t kIsum = 1;
constexpr size_t kDsum = 2;
constexpr size_t kAnyDouble = 3;

size_t Words(size_t bytes) { return (bytes + 7) / 8; }

uint64_t HashKey(const uint64_t* key, size_t words) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < words; ++i) {
    h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return Mix64(h);
}

/// memcmp of two keys, word by word (keys are a few words long).
bool KeysEqual(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

int64_t LoadInt(FieldType::Kind kind, const uint8_t* p) {
  if (kind == FieldType::Kind::kInt32) {
    int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double LoadDouble(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double Dbl(uint64_t w) { return std::bit_cast<double>(w); }
uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Stored MIN/MAX extreme of a numeric input as a double (tag != kNone).
double AsDouble(const uint64_t* s) {
  return s[0] == kIntTag ? static_cast<double>(static_cast<int64_t>(s[1]))
                         : Dbl(s[1]);
}

/// Three-way comparison of two stored extremes of type `t`, with
/// Value::Compare's numeric coercion (int vs double compares as double).
int CompareExtremes(const FieldType& t, const uint64_t* a, const uint64_t* b) {
  if (t.kind == FieldType::Kind::kChar) {
    return std::memcmp(a + 1, b + 1, t.char_len);
  }
  if (a[0] == kIntTag && b[0] == kIntTag) {
    const int64_t x = static_cast<int64_t>(a[1]);
    const int64_t y = static_cast<int64_t>(b[1]);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = AsDouble(a), y = AsDouble(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Words of aggregate state for `def`.
size_t StateWords(const AggDef& def) {
  switch (def.fn) {
    case AggFn::kCount:
      return 1;
    case AggFn::kSum:
    case AggFn::kAvg:
      return 4;
    case AggFn::kMin:
    case AggFn::kMax:
      return 1 + (def.input.kind == FieldType::Kind::kChar
                      ? Words(def.input.char_len)
                      : 1);
  }
  return 1;
}

Value CharValue(const uint8_t* p, size_t cap) {
  size_t len = 0;
  while (len < cap && p[len] != 0) ++len;
  return Value(std::string_view(reinterpret_cast<const char*>(p), len));
}

}  // namespace

FieldType FieldType::Of(const Column& c) {
  switch (c.type) {
    case DataType::kInt32:
      return FieldType{Kind::kInt32, 0};
    case DataType::kInt64:
      return FieldType{Kind::kInt64, 0};
    case DataType::kDouble:
      return FieldType{Kind::kDouble, 0};
    case DataType::kChar:
      return FieldType{Kind::kChar, c.char_len};
  }
  return FieldType{};
}

size_t FieldType::width() const {
  switch (kind) {
    case Kind::kInt32:
      return 4;
    case Kind::kInt64:
    case Kind::kDouble:
      return 8;
    case Kind::kChar:
      return char_len;
    case Kind::kNumeric:
      return sizeof(NumericCell);
  }
  return 0;
}

GroupTable::GroupTable(const GroupLayout& layout) {
  uint32_t off = 0;
  for (const FieldType& t : layout.keys) {
    assert(t.kind != FieldType::Kind::kNumeric && "keys are column values");
    key_fields_.push_back(
        KeyField{t.kind, static_cast<uint32_t>(t.width()), off});
    off += 1 + static_cast<uint32_t>(t.width());
  }
  key_words_ = Words(off);
  uint32_t word = 0;
  for (const AggDef& def : layout.aggs) {
    assert((def.fn != AggFn::kSum && def.fn != AggFn::kAvg) ||
           def.input.kind != FieldType::Kind::kChar);
    aggs_.push_back(AggSlot{def, word});
    word += static_cast<uint32_t>(StateWords(def));
  }
  row_words_ = 1 + key_words_ + word;
  key_.assign(key_words_, 0);
  slots_.assign(kInitialSlots, kEmpty);
}

uint64_t* GroupTable::FindOrCreate(const uint64_t* key, uint64_t h) {
  const uint64_t tag = h & kTagMask;
  size_t mask = slots_.size() - 1;
  size_t idx = h & mask;
  for (;;) {
    const uint64_t s = slots_[idx];
    if (s == kEmpty) break;
    if ((s & kTagMask) == tag) {
      uint64_t* row = Row(static_cast<uint32_t>(s & kIndexMask));
      if (KeysEqual(row + 1, key, key_words_)) return row;
    }
    idx = (idx + 1) & mask;
  }
  if ((num_groups_ + 1) * 10 > slots_.size() * 7) {
    Rehash();
    mask = slots_.size() - 1;
    idx = h & mask;
    while (slots_[idx] != kEmpty) idx = (idx + 1) & mask;
  }
  const uint32_t g = static_cast<uint32_t>(num_groups_++);
  arena_.resize(arena_.size() + row_words_, 0);
  uint64_t* row = Row(g);
  row[0] = h;
  if (key_words_ > 0) std::memcpy(row + 1, key, key_words_ * 8);
  slots_[idx] = tag | g;
  return row;
}

void GroupTable::Rehash() {
  slots_.assign(slots_.size() * 2, kEmpty);
  const size_t mask = slots_.size() - 1;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const uint64_t h = Row(g)[0];
    size_t idx = h & mask;
    while (slots_[idx] != kEmpty) idx = (idx + 1) & mask;
    slots_[idx] = (h & kTagMask) | g;
  }
}

void GroupTable::Reset() {
  std::vector<uint64_t>().swap(arena_);
  num_groups_ = 0;
  slots_.assign(kInitialSlots, kEmpty);
}

void GroupTable::FoldInput(const AggSlot& a, uint64_t* s,
                           const uint8_t* in) const {
  const FieldType::Kind kind = a.def.input.kind;
  switch (a.def.fn) {
    case AggFn::kCount:
      ++s[0];
      return;
    case AggFn::kSum:
    case AggFn::kAvg: {
      if (in == nullptr) return;
      ++s[kCount];
      bool is_double = kind == FieldType::Kind::kDouble;
      int64_t i = 0;
      double d = 0.0;
      if (kind == FieldType::Kind::kNumeric) {
        const NumericCell* c = reinterpret_cast<const NumericCell*>(in);
        is_double = c->is_double;
        i = c->i;
        d = c->d;
      } else if (is_double) {
        d = LoadDouble(in);
      } else {
        i = LoadInt(kind, in);
      }
      if (is_double) {
        s[kAnyDouble] = 1;
        s[kDsum] = Bits(Dbl(s[kDsum]) + d);
      } else {
        s[kIsum] += static_cast<uint64_t>(i);
      }
      return;
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      if (in == nullptr) return;
      const bool is_max = a.def.fn == AggFn::kMax;
      if (kind == FieldType::Kind::kChar) {
        const size_t n = a.def.input.char_len;
        uint8_t* cur = reinterpret_cast<uint8_t*>(s + 1);
        if (s[0] != kNone) {
          const int c = std::memcmp(in, cur, n);
          if (is_max ? c <= 0 : c >= 0) return;
        }
        s[0] = kCharTag;
        std::memcpy(cur, in, n);
        return;
      }
      uint64_t cand[2];
      switch (kind) {
        case FieldType::Kind::kDouble:
          cand[0] = kDoubleTag;
          cand[1] = Bits(LoadDouble(in));
          break;
        case FieldType::Kind::kNumeric: {
          const NumericCell* c = reinterpret_cast<const NumericCell*>(in);
          cand[0] = c->is_double ? kDoubleTag : kIntTag;
          cand[1] = c->is_double ? Bits(c->d) : static_cast<uint64_t>(c->i);
          break;
        }
        default:
          cand[0] = kIntTag;
          cand[1] = static_cast<uint64_t>(LoadInt(kind, in));
          break;
      }
      if (s[0] != kNone) {
        const int c = CompareExtremes(a.def.input, cand, s);
        if (is_max ? c <= 0 : c >= 0) return;
      }
      s[0] = cand[0];
      s[1] = cand[1];
      return;
    }
  }
}

void GroupTable::Fold(const uint8_t* const* keys,
                      const uint8_t* const* inputs) {
  uint8_t* kb = reinterpret_cast<uint8_t*>(key_.data());
  for (size_t i = 0; i < key_fields_.size(); ++i) {
    const KeyField& f = key_fields_[i];
    uint8_t* p = kb + f.offset;
    const uint8_t* src = keys[i];
    if (src == nullptr) {
      p[0] = 1;
      std::memset(p + 1, 0, f.width);
    } else if (f.kind == FieldType::Kind::kDouble) {
      // -0.0 == 0.0 as a group key: canonicalize before comparing bytes.
      const double d = LoadDouble(src);
      const double canon = d == 0.0 ? 0.0 : d;
      p[0] = 0;
      std::memcpy(p + 1, &canon, sizeof(canon));
    } else {
      p[0] = 0;
      std::memcpy(p + 1, src, f.width);
    }
  }
  uint64_t* row = FindOrCreate(key_.data(), HashKey(key_.data(), key_words_));
  uint64_t* states = row + 1 + key_words_;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    FoldInput(aggs_[a], states + aggs_[a].word, inputs[a]);
  }
}

void GroupTable::MergeState(const AggSlot& a, uint64_t* dst,
                            const uint64_t* src) const {
  switch (a.def.fn) {
    case AggFn::kCount:
      dst[0] += src[0];
      return;
    case AggFn::kSum:
    case AggFn::kAvg:
      dst[kCount] += src[kCount];
      dst[kIsum] += src[kIsum];
      dst[kDsum] = Bits(Dbl(dst[kDsum]) + Dbl(src[kDsum]));
      dst[kAnyDouble] |= src[kAnyDouble];
      return;
    case AggFn::kMin:
    case AggFn::kMax: {
      if (src[0] == kNone) return;
      if (dst[0] != kNone) {
        const int c = CompareExtremes(a.def.input, src, dst);
        if (a.def.fn == AggFn::kMax ? c <= 0 : c >= 0) return;
      }
      std::memcpy(dst, src, StateWords(a.def) * 8);
      return;
    }
  }
}

void GroupTable::MergeFrom(GroupTable&& other) {
  assert(&other != this);
  assert(other.key_words_ == key_words_ && other.row_words_ == row_words_);
  for (uint32_t g = 0; g < other.num_groups_; ++g) {
    const uint64_t* src = other.Row(g);
    uint64_t* dst = FindOrCreate(src + 1, src[0]);
    const size_t base = 1 + key_words_;
    for (const AggSlot& a : aggs_) {
      MergeState(a, dst + base + a.word, src + base + a.word);
    }
  }
  other.Reset();
}

Value GroupTable::FinalValue(const AggSlot& a, const uint64_t* s) const {
  switch (a.def.fn) {
    case AggFn::kCount:
      return Value(static_cast<int64_t>(s[0]));
    case AggFn::kSum: {
      if (s[kCount] == 0) return Value();
      const int64_t isum = static_cast<int64_t>(s[kIsum]);
      if (s[kAnyDouble] != 0) {
        return Value(Dbl(s[kDsum]) + static_cast<double>(isum));
      }
      return Value(isum);
    }
    case AggFn::kAvg:
      if (s[kCount] == 0) return Value();
      return Value((Dbl(s[kDsum]) +
                    static_cast<double>(static_cast<int64_t>(s[kIsum]))) /
                   static_cast<double>(s[kCount]));
    case AggFn::kMin:
    case AggFn::kMax:
      switch (s[0]) {
        case kIntTag:
          return Value(static_cast<int64_t>(s[1]));
        case kDoubleTag:
          return Value(Dbl(s[1]));
        case kCharTag:
          return CharValue(reinterpret_cast<const uint8_t*>(s + 1),
                           a.def.input.char_len);
        default:
          return Value();
      }
  }
  return Value();
}

ResultSet GroupTable::Finish(std::vector<std::string> columns,
                             bool global_row_when_empty) {
  ResultSet rs;
  rs.columns = std::move(columns);
  if (num_groups_ == 0 && global_row_when_empty && !aggs_.empty()) {
    const std::vector<uint64_t> empty(row_words_, 0);
    std::vector<Value> row;
    for (const AggSlot& a : aggs_) {
      row.push_back(FinalValue(a, empty.data() + a.word));
    }
    rs.rows.push_back(std::move(row));
    return rs;
  }
  rs.rows.reserve(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const uint64_t* r = Row(g);
    const uint8_t* kb = reinterpret_cast<const uint8_t*>(r + 1);
    std::vector<Value> row;
    row.reserve(key_fields_.size() + aggs_.size());
    for (const KeyField& f : key_fields_) {
      const uint8_t* p = kb + f.offset;
      if (p[0] != 0) {
        row.emplace_back();
        continue;
      }
      switch (f.kind) {
        case FieldType::Kind::kDouble:
          row.emplace_back(LoadDouble(p + 1));
          break;
        case FieldType::Kind::kChar:
          row.push_back(CharValue(p + 1, f.width));
          break;
        default:
          row.emplace_back(LoadInt(f.kind, p + 1));
          break;
      }
    }
    const uint64_t* states = r + 1 + key_words_;
    for (const AggSlot& a : aggs_) {
      row.push_back(FinalValue(a, states + a.word));
    }
    rs.rows.push_back(std::move(row));
  }
  Reset();
  return rs;
}

}  // namespace cjoin
