#include "trace/file_io.hpp"

#include <cstddef>
#include <cstring>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace trace {

namespace {

Operand
unpackOperand(uint8_t kind_seg, uint64_t id)
{
    Operand op;
    op.kind = static_cast<Operand::Kind>(kind_seg & 0x0f);
    op.seg = static_cast<Segment>(kind_seg >> 4);
    op.id = id;
    return op;
}

uint8_t
packOperandKind(const Operand &op)
{
    return static_cast<uint8_t>(static_cast<uint8_t>(op.kind) |
                                (static_cast<uint8_t>(op.seg) << 4));
}

void
validateOperandByte(uint8_t kind_seg, const char *which)
{
    uint8_t kind = kind_seg & 0x0f;
    uint8_t seg = kind_seg >> 4;
    if (kind > static_cast<uint8_t>(Operand::Kind::Mem))
        PARA_FATAL("bad %s operand kind %u", which, kind);
    if (seg > static_cast<uint8_t>(Segment::Stack))
        PARA_FATAL("bad %s operand segment %u", which, seg);
}

/** Byte offset of record @p index in a trace file. */
uint64_t
recordOffset(uint64_t index)
{
    return sizeof(TraceFileHeader) + index * sizeof(PackedRecord);
}

} // namespace

uint32_t
traceHeaderCrc(const TraceFileHeader &hdr)
{
    return crc32Of(&hdr, offsetof(TraceFileHeader, headerCrc));
}

void
validateTraceHeader(const TraceFileHeader &hdr, const std::string &path)
{
    if (hdr.magic != traceFileMagic)
        PARA_FATAL("bad trace file magic in %s", path.c_str());
    if (hdr.version < 1 || hdr.version > traceFileVersion)
        PARA_FATAL("unsupported trace file version %u in %s", hdr.version,
                   path.c_str());
    if (hdr.version >= 2) {
        uint32_t expect = traceHeaderCrc(hdr);
        if (hdr.headerCrc != expect) {
            PARA_FATAL("trace file header checksum mismatch in %s "
                       "(stored %08x, computed %08x); header is corrupt",
                       path.c_str(), hdr.headerCrc, expect);
        }
    } else {
        PARA_WARN("trace file %s is format v1: no checksums, integrity "
                  "cannot be verified",
                  path.c_str());
    }
}

void
throwPayloadCrcMismatch(const std::string &path, uint32_t stored,
                        uint32_t computed, uint64_t count)
{
    PARA_FATAL("trace file payload checksum mismatch in %s "
               "(stored %08x, computed %08x over %llu records); "
               "trace is corrupt",
               path.c_str(), stored, computed,
               static_cast<unsigned long long>(count));
}

void
throwTraceTruncated(const std::string &path, uint64_t index)
{
    PARA_FATAL("trace file truncated: %s (record %llu at offset %llu)",
               path.c_str(), static_cast<unsigned long long>(index),
               static_cast<unsigned long long>(recordOffset(index)));
}

PackedRecord
packRecord(const TraceRecord &rec)
{
    PackedRecord p = {};
    p.cls = static_cast<uint8_t>(rec.cls);
    p.flags = static_cast<uint8_t>((rec.createsValue ? 1 : 0) |
                                   (rec.isSysCall ? 2 : 0) |
                                   (rec.isCondBranch ? 4 : 0) |
                                   (rec.branchTaken ? 8 : 0));
    p.numSrcs = rec.numSrcs;
    p.lastUseMask = rec.lastUseMask;
    for (int i = 0; i < maxSrcs; ++i) {
        p.operandKinds[i] = packOperandKind(rec.srcs[i]);
        p.operandIds[i] = rec.srcs[i].id;
    }
    p.operandKinds[3] = packOperandKind(rec.dest);
    p.operandIds[3] = rec.dest.id;
    p.pc = rec.pc;
    return p;
}

TraceRecord
unpackRecord(const PackedRecord &p)
{
    // Range-check every field that selects into an enum or array before
    // trusting it: a flipped on-disk byte must become a diagnosed error,
    // not an out-of-bounds latency lookup or a phantom operand class.
    if (p.cls >= static_cast<uint8_t>(isa::OpClass::NumClasses))
        PARA_FATAL("bad operation class %u", p.cls);
    if (p.flags & ~0x0fu)
        PARA_FATAL("bad flag bits 0x%02x", p.flags);
    if (p.numSrcs > maxSrcs)
        PARA_FATAL("bad source count %u", p.numSrcs);
    if (p.lastUseMask & ~0x07u)
        PARA_FATAL("bad last-use mask 0x%02x", p.lastUseMask);
    for (int i = 0; i < maxSrcs; ++i)
        validateOperandByte(p.operandKinds[i], "source");
    validateOperandByte(p.operandKinds[3], "destination");

    TraceRecord rec;
    rec.cls = static_cast<isa::OpClass>(p.cls);
    rec.createsValue = (p.flags & 1) != 0;
    rec.isSysCall = (p.flags & 2) != 0;
    rec.isCondBranch = (p.flags & 4) != 0;
    rec.branchTaken = (p.flags & 8) != 0;
    rec.numSrcs = p.numSrcs;
    rec.lastUseMask = p.lastUseMask;
    for (int i = 0; i < maxSrcs; ++i)
        rec.srcs[i] = unpackOperand(p.operandKinds[i], p.operandIds[i]);
    rec.dest = unpackOperand(p.operandKinds[3], p.operandIds[3]);
    rec.pc = p.pc;
    return rec;
}

TraceFileWriter::TraceFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        PARA_FATAL("cannot open trace file for writing: %s", path.c_str());
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    closeFile(false);
}

void
TraceFileWriter::writeHeader()
{
    TraceFileHeader hdr{traceFileMagic, traceFileVersion, count_,
                        payloadCrc_, 0};
    hdr.headerCrc = traceHeaderCrc(hdr);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1) {
        PARA_FATAL("trace file header write failed: %s", path_.c_str());
    }
}

void
TraceFileWriter::write(const TraceRecord &rec)
{
    PARA_ASSERT(file_, "write after close");
    PackedRecord p = packRecord(rec);
    if (PARA_FAILPOINT("trace.file.write") ||
        std::fwrite(&p, sizeof(p), 1, file_) != 1)
        PARA_FATAL("trace file record write failed: %s", path_.c_str());
    payloadCrc_ = crc32Update(payloadCrc_, &p, sizeof(p));
    ++count_;
}

uint64_t
TraceFileWriter::writeAll(TraceSource &src)
{
    TraceRecord rec;
    uint64_t n = 0;
    while (src.next(rec)) {
        write(rec);
        ++n;
    }
    return n;
}

void
TraceFileWriter::close()
{
    closeFile(true);
}

void
TraceFileWriter::closeFile(bool throwOnError)
{
    if (!file_)
        return;
    std::FILE *f = file_;
    file_ = nullptr;

    // Finalize the header, then check the flush and close results: buffered
    // stdio reports a full disk only here, and dropping that would leave a
    // silently short or checksum-less trace on disk.
    const char *err = nullptr;
    TraceFileHeader hdr{traceFileMagic, traceFileVersion, count_,
                        payloadCrc_, 0};
    hdr.headerCrc = traceHeaderCrc(hdr);
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, f) != 1) {
        err = "trace file header write failed";
    }
    if (!err && std::fflush(f) != 0)
        err = "trace file flush failed";
    if (std::fclose(f) != 0 && !err)
        err = "trace file close failed";
    if (err) {
        if (throwOnError)
            PARA_FATAL("%s: %s", err, path_.c_str());
        PARA_WARN("%s: %s (in destructor; trace is incomplete)", err,
                  path_.c_str());
    }
}

TraceFileReader::TraceFileReader(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    TraceFileHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("trace file too short: %s", path.c_str());
    }
    try {
        validateTraceHeader(hdr, path);
    } catch (...) {
        std::fclose(file_);
        file_ = nullptr;
        throw;
    }
    version_ = hdr.version;
    count_ = hdr.count;
    expectedPayloadCrc_ = hdr.payloadCrc;
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (pos_ >= count_)
        return false;
    PackedRecord p;
    if (PARA_FAILPOINT("trace.file.read") ||
        std::fread(&p, sizeof(p), 1, file_) != 1)
        throwTraceTruncated(path_, pos_);
    try {
        rec = unpackRecord(p);
    } catch (const FatalError &e) {
        PARA_FATAL("%s: %s (record %llu at offset %llu)", path_.c_str(),
                   e.what(), static_cast<unsigned long long>(pos_),
                   static_cast<unsigned long long>(recordOffset(pos_)));
    }
    if (version_ >= 2)
        runningCrc_ = crc32Update(runningCrc_, &p, sizeof(p));
    ++pos_;
    if (version_ >= 2 && pos_ == count_ &&
        runningCrc_ != expectedPayloadCrc_)
        throwPayloadCrcMismatch(path_, expectedPayloadCrc_, runningCrc_,
                                count_);
    return true;
}

void
TraceFileReader::reset()
{
    PARA_ASSERT(file_, "reset on closed reader");
    if (std::fseek(file_, sizeof(TraceFileHeader), SEEK_SET) != 0)
        PARA_FATAL("trace file seek failed: %s", path_.c_str());
    pos_ = 0;
    runningCrc_ = 0;
}

uint32_t
traceRecordsCrc(uint32_t crc, const TraceRecord *records, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        PackedRecord p = packRecord(records[i]);
        crc = crc32Update(crc, &p, sizeof(p));
    }
    return crc;
}

uint32_t
traceBufferCrc(const TraceBuffer &buffer)
{
    return traceRecordsCrc(0, buffer.records().data(), buffer.size());
}

} // namespace trace
} // namespace paragraph
