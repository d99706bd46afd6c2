/**
 * @file
 * Binary trace file format (reader/writer).
 *
 * Layout: a 24-byte header (magic "PTRC", version, record count, checksums)
 * followed by fixed-size little-endian records. The format exists so traces
 * can be captured once (e.g. from a slow source) and re-analyzed offline,
 * the same role Pixie output files played for Paragraph.
 *
 * Format v2 hardens ingestion against on-disk corruption: the header
 * carries a CRC-32 of itself plus a CRC-32 of the whole record payload
 * (verified when the stream is read to the end), and every record's
 * class/operand-kind/segment/source-count fields are range-checked as it
 * is unpacked — a flipped byte in a multi-GB capture becomes a FatalError
 * naming the record index and byte offset, never silent corruption. v1
 * files (checksum words zero) still read, with a warning that integrity
 * cannot be verified.
 */

#ifndef PARAGRAPH_TRACE_FILE_IO_HPP
#define PARAGRAPH_TRACE_FILE_IO_HPP

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "trace/buffer.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace paragraph {
namespace trace {

/** On-disk encoding of one record (packed, little-endian). */
struct PackedRecord
{
    uint8_t cls;
    uint8_t flags; ///< bit0 createsValue, bit1 isSysCall
    uint8_t numSrcs;
    uint8_t lastUseMask;
    uint8_t operandKinds[4]; ///< kind | (segment << 4); [3] is dest
    uint64_t operandIds[4];  ///< [3] is dest
    uint64_t pc;
};

constexpr uint32_t traceFileMagic = 0x43525450; // "PTRC"
constexpr uint32_t traceFileVersion = 2;

/**
 * On-disk file header (24 bytes, little-endian). v1 wrote zeros in the
 * two checksum words (then a single reserved field); v2 fills them in.
 */
struct TraceFileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
    uint32_t payloadCrc; ///< v2: CRC-32 of all record bytes, in file order
    uint32_t headerCrc;  ///< v2: CRC-32 of the 20 bytes preceding this field
};

static_assert(sizeof(TraceFileHeader) == 24, "header layout is on disk");

/** CRC-32 of a header's first 20 bytes (everything before headerCrc). */
uint32_t traceHeaderCrc(const TraceFileHeader &hdr);

/**
 * The one `.ptrc` header check, shared by TraceFileReader and
 * MmapTraceFile: throws FatalError naming @p path on a bad magic, an
 * unsupported version or (v2) a header-CRC mismatch, and warns that a v1
 * file carries no checksums.
 */
void validateTraceHeader(const TraceFileHeader &hdr, const std::string &path);

/** Throw the payload-checksum-mismatch FatalError for @p path: @p computed
 *  over @p count records differs from the header's @p stored CRC. */
[[noreturn]] void throwPayloadCrcMismatch(const std::string &path,
                                          uint32_t stored, uint32_t computed,
                                          uint64_t count);

/** Throw the truncation FatalError for record @p index of @p path. */
[[noreturn]] void throwTraceTruncated(const std::string &path,
                                      uint64_t index);

/** Streaming trace file writer. */
class TraceFileWriter
{
  public:
    /** Open @p path for writing; throws FatalError on failure. */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record. */
    void write(const TraceRecord &rec);

    /** Drain @p src into the file; returns records written. */
    uint64_t writeAll(TraceSource &src);

    /**
     * Finalize the header (count + checksums), flush, and close; throws
     * FatalError if any of those fail, so a full disk can never produce a
     * silently short trace. The destructor also closes but only warns on
     * failure (destructors must not throw).
     */
    void close();

    uint64_t recordsWritten() const { return count_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    uint32_t payloadCrc_ = 0;

    void writeHeader();
    void closeFile(bool throwOnError);
};

/** Replayable trace file reader. */
class TraceFileReader : public TraceSource
{
  public:
    /**
     * Open @p path; throws FatalError on bad magic, unsupported version,
     * a v2 header whose checksum does not match, or truncation. Every
     * record-level FatalError names the record index and byte offset.
     */
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    bool next(TraceRecord &rec) override;
    void reset() override;
    std::string name() const override { return path_; }

    /** Total records in the file. */
    uint64_t recordCount() const { return count_; }

    /** Format version read from the header (1 = no checksums). */
    uint32_t formatVersion() const { return version_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    uint64_t pos_ = 0;
    uint32_t version_ = traceFileVersion;
    uint32_t expectedPayloadCrc_ = 0;
    uint32_t runningCrc_ = 0;
};

/** Pack / unpack between the in-memory and on-disk record forms.
 *  unpackRecord range-checks the operation class, flag bits, source count,
 *  operand kinds, and segments, throwing FatalError on any violation. */
PackedRecord packRecord(const TraceRecord &rec);
TraceRecord unpackRecord(const PackedRecord &packed);

/**
 * CRC-32 of @p buffer's records in their packed on-disk form — the same
 * value a TraceFileWriter draining the buffer would put in the header's
 * payloadCrc field. This is the trace half of the (trace CRC-32, config
 * key) content address the paragraph-serve result cache is keyed by: it
 * identifies the analyzed records themselves, independent of whether they
 * came from a file, a simulation, or a bundled workload.
 */
uint32_t traceBufferCrc(const TraceBuffer &buffer);

/** Extend @p crc (a previous result, or 0) over @p n more records in
 *  packed form: folding a trace's blocks in order gives traceBufferCrc()
 *  of the whole trace. */
uint32_t traceRecordsCrc(uint32_t crc, const TraceRecord *records, size_t n);

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_FILE_IO_HPP
