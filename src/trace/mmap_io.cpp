#include "trace/mmap_io.hpp"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/panic.hpp"
#include "trace/bulk_unpack.hpp"

namespace paragraph {
namespace trace {

MmapTraceFile::MmapTraceFile(const std::string &path)
{
    open(path, /*throwOnMapFailure=*/true);
}

std::shared_ptr<MmapTraceFile>
MmapTraceFile::tryOpen(const std::string &path)
{
    // Probe readability first so a genuinely missing file throws the
    // reader's "cannot open" error instead of silently falling back.
    std::shared_ptr<MmapTraceFile> file(new MmapTraceFile());
    if (!file->open(path, /*throwOnMapFailure=*/false))
        return nullptr;
    return file;
}

bool
MmapTraceFile::open(const std::string &path, bool throwOnMapFailure)
{
    path_ = path;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        PARA_FATAL("cannot open trace file: %s", path.c_str());

    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        PARA_FATAL("cannot open trace file: %s", path.c_str());
    }
    size_t size = static_cast<size_t>(st.st_size);
    if (size < sizeof(TraceFileHeader)) {
        ::close(fd);
        PARA_FATAL("trace file too short: %s", path.c_str());
    }

    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference to the file
    if (PARA_FAILPOINT("trace.mmap.map") && map != MAP_FAILED) {
        // Simulated ENOMEM: release the real mapping and take the same
        // branch a genuine mmap failure would.
        ::munmap(map, size);
        map = MAP_FAILED;
    }
    if (map == MAP_FAILED) {
        if (throwOnMapFailure)
            PARA_FATAL("cannot mmap trace file: %s", path.c_str());
        return false;
    }
    map_ = map;
    mapSize_ = size;

    TraceFileHeader hdr;
    std::memcpy(&hdr, map_, sizeof(hdr));
    validateTraceHeader(hdr, path);
    version_ = hdr.version;
    count_ = hdr.count;
    payloadCrc_ = hdr.payloadCrc;
    payload_ = static_cast<const uint8_t *>(map_) + sizeof(TraceFileHeader);
    uint64_t backed = (size - sizeof(TraceFileHeader)) / sizeof(PackedRecord);
    avail_ = backed < count_ ? backed : count_;
    return true;
}

MmapTraceFile::~MmapTraceFile()
{
    if (map_)
        ::munmap(map_, mapSize_);
}

const PackedRecord *
MmapTraceFile::packed(uint64_t index) const
{
    PARA_ASSERT(index < avail_, "packed record index out of range");
    return reinterpret_cast<const PackedRecord *>(
        payload_ + index * sizeof(PackedRecord));
}

void
MmapTraceFile::decode(uint64_t first, size_t n, TraceRecord *out) const
{
    if (n == 0)
        return;
    if (first + n > avail_)
        throwTraceTruncated(path_, avail_);
    unpackRecords(reinterpret_cast<const PackedRecord *>(
                      payload_ + first * sizeof(PackedRecord)),
                  out, n, path_, first);
}

uint32_t
MmapTraceFile::crcRange(uint64_t first, uint64_t n, uint32_t crc) const
{
    PARA_ASSERT(first + n <= avail_, "crc range out of bounds");
    return crc32Update(crc, payload_ + first * sizeof(PackedRecord),
                       n * sizeof(PackedRecord));
}

void
MmapTraceFile::verifyPayload() const
{
    if (version_ < 2)
        return;
    if (avail_ < count_)
        throwTraceTruncated(path_, avail_);
    uint32_t crc = crcRange(0, count_, 0);
    if (PARA_FAILPOINT("trace.mmap.crc"))
        crc ^= 1; // simulated flipped payload bit
    if (crc != payloadCrc_)
        throwPayloadCrcMismatch(path_, payloadCrc_, crc, count_);
}

bool
MmapTraceSource::next(TraceRecord &rec)
{
    return nextBatch(&rec, 1) == 1;
}

size_t
MmapTraceSource::nextBatch(TraceRecord *out, size_t max)
{
    uint64_t count = file_->recordCount();
    if (pos_ >= count || max == 0)
        return 0;
    uint64_t remaining = count - pos_;
    size_t n = remaining < max ? static_cast<size_t>(remaining) : max;
    // Past-the-bytes reads throw the reader's truncation error from decode.
    file_->decode(pos_, n, out);
    if (file_->formatVersion() >= 2)
        runningCrc_ = file_->crcRange(pos_, n, runningCrc_);
    pos_ += n;
    if (file_->formatVersion() >= 2 && pos_ == count &&
        runningCrc_ != file_->storedPayloadCrc())
        throwPayloadCrcMismatch(file_->path(), file_->storedPayloadCrc(),
                                runningCrc_, count);
    return n;
}

void
MmapTraceSource::reset()
{
    pos_ = 0;
    runningCrc_ = 0;
}

} // namespace trace
} // namespace paragraph
