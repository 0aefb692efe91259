// Binary persistence for scan snapshots.
//
// The bench suite regenerates every table/figure from the same campaign;
// the first binary runs the scans and caches them, the rest load from disk
// (exactly like the paper's analyses ran on the recorded dataset rather
// than re-scanning per figure).
//
// There is one format, v6, and one reader: SnapshotReader opens either a
// file (memory-mapped) or an in-memory image that SnapshotWriter sealed
// into a byte buffer, through the same validation. In-memory campaigns
// (std::vector<ScanSnapshot>) are encoded into such an image before any
// analysis, diff or series pass reads them, so every pass has exactly one
// input path. The retired row formats v4 and v5 are rejected on open with
// an error naming the version and the path.
//
// Format v6 splits each chunk into fixed-width per-field columns plus one
// variable-length column, and hoists all certificate DER into a single
// file-level dictionary so a blob repeated across endpoints, hosts,
// chunks and measurements is stored exactly once:
//
//   header:  u32 magic 'OUAS'  u32 version=6  u64 seed
//   chunk*:  (8-byte aligned)
//            u32 'CHNK'  u32 snapshot_ordinal  u32 record_count=n
//            u32 reserved=0  u64 payload_bytes
//            fixed columns (47n + 4 bytes, decreasing alignment):
//              u64 bytes_sent[n]   u64 uri_hash[n]   f64 duration[n]
//              u32 ip[n]  u32 asn[n]  u32 var_offsets[n+1]  u16 port[n]
//              u8 application_type[n]  u8 channel[n]  u8 channel_policy[n]
//              u8 channel_mode[n]  u8 session[n]  u8 flags[n]
//              u8 mode_mask[n]  u8 policy_mask[n]  u8 token_mask[n]
//            var column (var_offsets[n] bytes): per record
//              u16 distinct_cert_count  u32 cert_id*
//              string application_uri | product_uri | name | software
//              u32 endpoint_count, per endpoint: string url  u8 mode
//                u8 policy_code (enum value; 255 = explicit URI follows)
//                u8 token_count  u8 token*  u32 cert_id (0xffffffff = none)
//              u32 ref_count ×(u32 ip  u16 port)
//              string[] namespaces
//              u32 node_count ×(string browse_name  u8 node_class
//                               u8 access bits r|w<<1|x<<2)
//              [scan-quality tail, only when flags bit 6 is set:
//               u8 completeness  u16 retries  u16 fault_events —
//               at least one field nonzero (an all-zero tail is
//               non-canonical and rejected)]
//              [protocol tail, only when flags bit 7 is set: u8
//               protocol id — always last in the slice, and always
//               nonzero (OPC UA is protocol 0 and carries no tail, so
//               single-protocol files stay byte-identical to
//               pre-registry output; a zero byte is rejected)]
//            zero padding to the next 8-byte boundary (not indexed;
//            recomputed as (8 - payload%8) % 8)
//   dict:    u32 'CDIC'  u32 entry_count
//            entry*: u64 fingerprint64  byte_string der
//   footer:  u32 'FOOT'  u32 snapshot_count
//            snapshot*: i32 measurement_index  i64 date_days
//                       u64 probes_sent  u64 tcp_open_count  u64 host_count
//            u32 chunk_count
//            chunk*: u32 snapshot_ordinal  u32 record_count
//                    u64 file_offset  u64 payload_bytes (unpadded)
//            u64 dict_offset  u64 dict_bytes  u32 dict_count
//            [optional campaign block — only when a label/epoch was set:
//             u32 'CAMP'  snapshot*: string campaign_label  i64 epoch_days]
//            [optional protocol block — only when any record is from a
//             non-OPC-UA backend: u32 'PROT'  snapshot*: u32 protocol
//             mask (bit p set = protocol id p present in that week)]
//   trailer: u64 footer_offset  u32 'SNAP'
//
// uri_hash, mode_mask, policy_mask and token_mask are *derived* columns
// (hash64 of the application URI; one bit per advertised endpoint mode /
// canonical policy / token type) so posture passes never touch the var
// column; the row decoder re-derives and cross-checks them, turning a
// flipped bit into a DecodeError instead of a silent misclassification.
// Dictionary ids are assigned by first appearance in the record stream
// and entries are stored in id order, which makes v6 output a pure
// function of (records, seed): byte-identical across runs, shard layouts
// and thread counts. v6 files are memory-mapped on open; ColumnView spans
// alias the mapping and stay valid exactly as long as the reader lives.
//
// The campaign block makes diff inputs self-describing (src/diff/ checks
// that a follow-up campaign really is later than its base). Files written
// without SnapshotWriter::set_campaign omit the block; readers default
// absent labels to ""/0.
//
// Chunks are the unit of streaming and of parallel work: chunk index
// order is the canonical record order (ascending measurement, then record
// order within it), a chunk never straddles two measurements, and
// record_count may be anything from 1 to the writer's chunk size. The
// reader validates the whole index up front (offsets inside the file,
// 8-byte alignment, record counts summing to each measurement's
// host_count) and the dictionary (every fingerprint recomputed), and
// read_chunk/column_view re-check each chunk header against the index, so
// truncation, a flipped bit or an out-of-range enum fails with a
// SnapshotError naming the file, format and byte offset — never garbage.
//
// The format is little-endian on disk and columns are read in place, so
// the library requires a little-endian host (static_assert in
// snapshot_io.cpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "opcua/encoding.hpp"
#include "scanner/record.hpp"

namespace opcua_study {

/// Thrown on any structural problem with a snapshot file: bad magic,
/// truncation, out-of-range enum values, inconsistent chunk index. The
/// message names what was wrong and where, so a corrupt multi-gigabyte
/// dataset fails loudly instead of yielding garbage records.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-measurement metadata, available without decoding any host record.
struct SnapshotMeta {
  int measurement_index = 0;
  std::int64_t date_days = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t tcp_open_count = 0;
  std::uint64_t host_count = 0;
  /// Which recorded campaign this measurement belongs to. Empty label /
  /// zero epoch = undeclared (written without SnapshotWriter::set_campaign).
  std::string campaign_label;
  std::int64_t campaign_epoch_days = 0;
  /// Bit p set = protocol id p appears in this measurement. 0 =
  /// undeclared: files whose every record is OPC UA (the writer omits the
  /// block so such files stay byte-identical to pre-protocol output).
  std::uint32_t protocol_mask = 0;

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

/// One indexed record group. Chunks are stored (and indexed) in write
/// order: ascending snapshot ordinal, then record order within the week.
struct SnapshotChunkInfo {
  std::uint32_t snapshot_ordinal = 0;
  std::uint32_t record_count = 0;
  std::uint64_t file_offset = 0;   // of the chunk header
  std::uint64_t payload_bytes = 0;

  friend bool operator==(const SnapshotChunkInfo&, const SnapshotChunkInfo&) = default;
};

/// Bit assignments of the v6 per-record flags column.
namespace snapshot_flags {
inline constexpr std::uint8_t kTcpOpen = 1u << 0;
inline constexpr std::uint8_t kSpeaksOpcua = 1u << 1;
inline constexpr std::uint8_t kFoundViaReference = 1u << 2;
inline constexpr std::uint8_t kServerSignatureValid = 1u << 3;
inline constexpr std::uint8_t kAnonymousOffered = 1u << 4;
inline constexpr std::uint8_t kTraversalTruncated = 1u << 5;
/// Record carries a scan-quality tail (5 bytes at the end of its var
/// slice). Only set when any quality field is nonzero, so fault-free
/// files stay byte-identical to pre-fault output.
inline constexpr std::uint8_t kScanQuality = 1u << 6;
/// Record carries a protocol tail (1 byte, the very end of its var
/// slice). Only set for non-OPC-UA backends — protocol 0 records carry
/// no tail, so OPC-UA-only files stay byte-identical to pre-registry
/// output, and a zero tail byte is rejected as non-canonical.
inline constexpr std::uint8_t kProtocol = 1u << 7;
inline constexpr std::uint8_t kAllFlags = 0xff;
}  // namespace snapshot_flags

/// The v6 "no certificate" sentinel in endpoint cert_id slots.
inline constexpr std::uint32_t kNoCertId = 0xffffffffu;

/// Typed zero-copy view over one v6 chunk's columns. All spans alias the
/// reader's memory mapping: a ColumnView (and every UaReader handed out by
/// var_record) must not outlive the SnapshotReader it came from, and the
/// underlying bytes are immutable for the reader's whole lifetime, so
/// concurrent readers never race. Full records decode through
/// read_chunk.
struct ColumnView {
  std::uint32_t snapshot_ordinal = 0;
  std::size_t records = 0;

  std::span<const std::uint64_t> bytes_sent;
  std::span<const std::uint64_t> uri_hash;
  std::span<const double> duration_seconds;
  std::span<const std::uint32_t> ip;
  std::span<const std::uint32_t> asn;
  std::span<const std::uint32_t> var_offsets;  // records + 1 entries
  std::span<const std::uint16_t> port;
  std::span<const std::uint8_t> application_type;
  std::span<const std::uint8_t> channel;
  std::span<const std::uint8_t> channel_policy;
  std::span<const std::uint8_t> channel_mode;
  std::span<const std::uint8_t> session;
  std::span<const std::uint8_t> flags;
  std::span<const std::uint8_t> mode_mask;
  std::span<const std::uint8_t> policy_mask;
  std::span<const std::uint8_t> token_mask;
  std::span<const std::uint8_t> var_blob;

  /// Reader positioned at record i's slice of the var column (validated
  /// monotone and in-bounds when the view was created).
  UaReader var_record(std::size_t i) const {
    return UaReader(var_blob.subspan(var_offsets[i], var_offsets[i + 1] - var_offsets[i]));
  }
};

/// Lazy decoder over one record's var-column slice. Accessors must be
/// called in field order (cert_ids, application_uri, product_uri,
/// application_name, software_version, namespaces, visit_nodes); any
/// prefix may be skipped and the cursor skips the intervening fields
/// without materializing them. Throws DecodeError on malformed bytes.
class VarRecordCursor {
 public:
  explicit VarRecordCursor(UaReader r) : r_(std::move(r)) {}

  /// Distinct certificate dictionary ids, first-seen endpoint order.
  void cert_ids(std::vector<std::uint32_t>& out);
  std::string application_uri();
  std::string product_uri();
  std::string application_name();
  std::string software_version();
  std::vector<std::string> namespaces();
  /// fn(node_class, readable, writable, executable) per traversed node;
  /// browse names are skipped, not decoded.
  void visit_nodes(const std::function<void(NodeClass, bool, bool, bool)>& fn);

 private:
  enum Stage {
    kCertIds = 0, kApplicationUri, kProductUri, kApplicationName,
    kSoftwareVersion, kEndpoints, kRefs, kNamespaces, kNodes,
  };
  void advance(int target);
  void skip_string();

  UaReader r_;
  int stage_ = 0;
};

/// Streaming writer: open, then per measurement begin_snapshot() /
/// add_host()* / end_snapshot(); finish() seals the file with the footer.
/// A writer destroyed without finish() leaves the file unsealed, and
/// readers reject it — a half-written campaign never masquerades as a
/// complete dataset. Buffers at most one chunk of records plus the
/// certificate dictionary (one copy of each distinct DER).
///
/// An in-memory writer produces the same bytes into a buffer instead of a
/// file; take_image() hands the sealed image to a SnapshotReader.
class SnapshotWriter {
 public:
  static constexpr std::uint32_t kDefaultChunkRecords = 4096;

  /// File writer: streams into `path`.tmp, renamed over `path` by finish().
  /// `chunk_records` caps the records per chunk (the chunk table records
  /// each chunk's actual size).
  SnapshotWriter(const std::string& path, std::uint64_t seed,
                 std::uint32_t chunk_records = kDefaultChunkRecords);
  /// In-memory writer: byte-identical output, sealed into a buffer.
  explicit SnapshotWriter(std::uint64_t seed,
                          std::uint32_t chunk_records = kDefaultChunkRecords);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Stamp every *subsequent* begin_snapshot() with a campaign identity.
  /// Never called -> the footer omits the campaign block and the file is
  /// byte-identical to one written before labels existed.
  void set_campaign(const std::string& label, std::int64_t epoch_days);

  void begin_snapshot(int measurement_index, std::int64_t date_days);
  void add_host(const HostScanRecord& host);
  void end_snapshot(std::uint64_t probes_sent, std::uint64_t tcp_open_count);

  /// Convenience: append a fully materialized measurement.
  void add_snapshot(const ScanSnapshot& snapshot);

  /// Flushes the footer and closes the file (idempotent). Must be called
  /// for the file to be loadable.
  void finish();

  /// The sealed image of an in-memory writer (after finish(); the writer
  /// keeps nothing). Throws SnapshotError on a file writer or before
  /// finish().
  Bytes take_image();

 private:
  void emit(const Bytes& bytes);
  void flush_chunk();
  std::uint32_t intern_certificate(const Bytes& der);

  std::string path_;  // file writers; in-memory writers name themselves here
  bool in_memory_ = false;
  Bytes image_;       // in-memory writers: everything emitted so far
  std::uint32_t chunk_records_;
  std::string campaign_label_;
  std::int64_t campaign_epoch_days_ = 0;
  bool campaign_set_ = false;
  std::vector<SnapshotMeta> snapshots_;
  std::vector<SnapshotChunkInfo> chunks_;
  // Column buffers for the open chunk.
  struct ColumnBuffers;
  std::unique_ptr<ColumnBuffers> cols_;
  // Certificate dictionary: id order == first appearance order.
  std::vector<Bytes> dict_ders_;
  std::vector<std::uint64_t> dict_fps_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> dict_index_;  // fp64 -> ids
  std::uint32_t buffered_records_ = 0;
  std::uint64_t file_pos_ = 0;
  std::ofstream out_;
  bool in_snapshot_ = false;
  bool finished_ = false;
};

/// Random-access chunk reader — the one input every read-side pass
/// consumes. Opening validates the header, seed, the complete chunk index
/// (offsets inside the image, record counts consistent with the
/// per-snapshot host counts) and the certificate dictionary (every stored
/// fingerprint is recomputed from its DER), and throws SnapshotError on
/// any mismatch. Files are memory-mapped for the reader's lifetime
/// (falling back to a heap copy where mmap is unavailable); in-memory
/// images are shared, not copied. read_chunk() and column_view() are
/// const and thread-safe: workers may decode disjoint chunks concurrently.
class SnapshotReader {
 public:
  SnapshotReader(const std::string& path, std::uint64_t seed);
  /// Open an in-memory image (SnapshotWriter::take_image, encode_snapshots)
  /// through the same validation as a file. Error messages name it
  /// "<in-memory snapshot>".
  SnapshotReader(std::shared_ptr<const Bytes> image, std::uint64_t seed);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  std::uint32_t version() const { return version_; }
  const std::vector<SnapshotMeta>& snapshots() const { return snapshots_; }
  const std::vector<SnapshotChunkInfo>& chunks() const { return chunks_; }
  std::uint64_t total_records() const;

  /// 64-bit digest of the file's validated structure (format version,
  /// measurement metas, chunk index, certificate-dictionary fingerprints).
  /// Snapshot bytes are a pure function of (records, seed), so two files
  /// with equal fingerprints carry the same records for all practical
  /// purposes — this is the staleness check sidecar files (posture
  /// sketches, src/series/sketch.hpp) validate against before their
  /// contents are allowed to stand in for a record walk.
  std::uint64_t file_fingerprint() const;

  /// Decode one chunk into records (throws SnapshotError / DecodeError on
  /// corrupt payload bytes).
  std::vector<HostScanRecord> read_chunk(std::size_t chunk_index) const;

  /// Decode one chunk into a caller-owned buffer (cleared first). The
  /// streaming paths reuse one buffer across chunks instead of allocating
  /// a fresh vector per chunk.
  void read_chunk(std::size_t chunk_index, std::vector<HostScanRecord>& out) const;

  /// Stream every record in file order: fn(snapshot_ordinal, record).
  /// Holds at most one decoded chunk at a time.
  void for_each_host(
      const std::function<void(std::size_t, const HostScanRecord&)>& fn) const;

  /// Materialize everything (the legacy load-all path).
  std::vector<ScanSnapshot> load_all() const;

  /// Zero-copy column access to one chunk. The returned spans alias the
  /// reader's bytes and must not outlive it. Throws SnapshotError on a
  /// malformed chunk (bad header, short columns, non-monotone var
  /// offsets).
  ColumnView column_view(std::size_t chunk_index) const;

  /// Certificate dictionary: deduplicated DER in id order.
  /// kDictBlock consecutive entries are one unit of parallel work for the
  /// per-entry dictionary passes: open-time fingerprint verification and
  /// the analysis and posture certificate caches.
  static constexpr std::size_t kDictBlock = 128;
  std::size_t cert_count() const { return dict_.size(); }
  std::span<const std::uint8_t> cert_der(std::uint32_t cert_id) const;
  std::uint64_t cert_fp64(std::uint32_t cert_id) const { return dict_.at(cert_id).fp64; }

 private:
  void map_file();
  void open_image(std::uint64_t seed);
  struct DictEntry {
    std::uint64_t fp64 = 0;
    std::uint64_t offset = 0;  // of the DER bytes inside the file
    std::uint32_t length = 0;
  };

  std::string path_;
  std::uint32_t version_ = 0;
  std::vector<SnapshotMeta> snapshots_;
  std::vector<SnapshotChunkInfo> chunks_;
  std::vector<DictEntry> dict_;
  // The validated bytes, owned by storage_: the file mapping, a heap copy
  // of the file, or a shared in-memory image.
  std::shared_ptr<const void> storage_;
  const std::uint8_t* data_ = nullptr;
  std::size_t data_size_ = 0;
};

/// Streams `snapshots` into a snapshot file via SnapshotWriter. Output is
/// byte-deterministic: same records + seed give identical bytes on every
/// run.
void save_snapshots(const std::string& path, std::uint64_t seed,
                    const std::vector<ScanSnapshot>& snapshots);

/// The bytes save_snapshots would write, as an in-memory image — how the
/// read side consumes in-memory campaigns. Seed 0 unless given.
Bytes encode_snapshots(const std::vector<ScanSnapshot>& snapshots, std::uint64_t seed = 0,
                       std::uint32_t chunk_records = SnapshotWriter::kDefaultChunkRecords);

/// Returns nullopt when the file is missing, corrupt, or was produced with
/// a different seed/format version; `error` (when given) receives a
/// human-readable reason naming the detected format version and the byte
/// offset of the failure where one is known.
std::optional<std::vector<ScanSnapshot>> load_snapshots(const std::string& path,
                                                        std::uint64_t seed,
                                                        std::string* error = nullptr);

/// True when the measurement declares a campaign identity (label or epoch
/// set); unlabeled campaigns don't, and are exempt from chain validation.
bool campaign_declared(const SnapshotMeta& meta);

/// Validates that `members` (the final measurement of each campaign in an
/// ordered series) form a chain: declared epochs must strictly increase
/// (each non-zero epoch compares against the last non-zero one, even
/// across label-only members in between), and no two consecutive declared
/// members may carry the same (label, epoch) identity. Undeclared members
/// are skipped — a legacy file can sit anywhere in the series without
/// anchoring the chain. Members that declare a protocol mask must all
/// declare the *same* mask (a diff between an OPC-UA-only campaign and a
/// mixed fleet is apples-to-oranges); mask-0 members — pre-protocol files
/// — are exempt. Throws SnapshotError naming the offending link.
/// The old pairwise DiffOptions::validate_pairing check is this helper
/// applied to a two-member series.
void validate_campaign_chain(const std::vector<SnapshotMeta>& members);

}  // namespace opcua_study
