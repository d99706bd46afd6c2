#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

thread_local std::vector<int64_t> tlsOpenSpans;

uint64_t
threadOrdinal()
{
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t mine = next.fetch_add(1);
    return mine;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kEpoch)
        .count();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
interquartileMean(std::vector<double> v)
{
    if (v.size() < 4)
        return median(std::move(v));
    std::sort(v.begin(), v.end());
    size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::open(const std::string &layer, const std::string &name,
             uint64_t requestId, int64_t parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.requestId = requestId;
    s.parent = parent >= -1 ? parent : current();
    s.thread = threadOrdinal();
    s.start = now();
    int64_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int64_t>(spans_.size());
        spans_.push_back(std::move(s));
    }
    tlsOpenSpans.push_back(id);
    return id;
}

void
Tracer::close(int64_t id)
{
    if (id < 0)
        return;
    double t = now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].end = t;
    }
    if (!tlsOpenSpans.empty() && tlsOpenSpans.back() == id)
        tlsOpenSpans.pop_back();
}

void
Tracer::add(const std::string &layer, const std::string &name, double start,
            double end, int64_t parent)
{
    if (!enabled_)
        return;
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.thread = threadOrdinal();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

int64_t
Tracer::current() const
{
    return tlsOpenSpans.empty() ? -1 : tlsOpenSpans.back();
}

std::vector<std::pair<std::string, double>>
Tracer::selfSeconds(int64_t root) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t n = spans_.size();
    std::vector<std::vector<size_t>> children(n);
    for (size_t i = 0; i < n; ++i) {
        int64_t p = spans_[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < n)
            children[static_cast<size_t>(p)].push_back(i);
    }
    // Spans under the root (the root included).
    std::vector<char> inScope(n, root < 0 ? 1 : 0);
    if (root >= 0 && static_cast<size_t>(root) < n) {
        std::vector<size_t> stack{static_cast<size_t>(root)};
        while (!stack.empty()) {
            size_t s = stack.back();
            stack.pop_back();
            inScope[s] = 1;
            for (size_t c : children[s])
                stack.push_back(c);
        }
    }
    std::map<std::string, double> byLayer;
    for (size_t i = 0; i < n; ++i) {
        if (!inScope[i])
            continue;
        const Span &s = spans_[i];
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        for (size_t c : children[i]) {
            double a = std::max(spans_[c].start, s.start);
            double b = std::min(spans_[c].end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, curA = 0.0, curB = -1.0;
        for (auto &[a, b] : iv) {
            if (a > curB) {
                if (curB > curA)
                    covered += curB - curA;
                curA = a;
                curB = b;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (curB > curA)
            covered += curB - curA;
        byLayer[s.layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return {byLayer.begin(), byLayer.end()};
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      static_cast<unsigned long long>(s.thread),
                      s.start * 1e6, (s.end - s.start) * 1e6);
        os << "{\"name\": \"" << jsonEscape(s.name) << "\", \"cat\": \""
           << jsonEscape(s.layer) << "\", " << buf << ", \"args\": {\"id\": "
           << i << ", \"parent\": " << s.parent
           << ", \"request\": " << s.requestId << "}}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------
// Report / Checker
// ---------------------------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

bool
Report::has(const std::string &name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return true;
    }
    return false;
}

void
Checker::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failed_ <= 10)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

std::vector<AnalogInput>
defaultInputs(const std::vector<std::string> &names, bool small)
{
    auto &suite = paragraph::workloads::WorkloadSuite::instance();
    std::vector<AnalogInput> out;
    for (const std::string &name : names) {
        const auto &w = suite.find(name);
        out.push_back({&w, small ? w.smallInput : w.input});
    }
    return out;
}

std::vector<AnalogInput>
seededInputs(const std::vector<std::string> &names, bool small, Prng &rng)
{
    std::vector<AnalogInput> out = defaultInputs(names, small);
    for (AnalogInput &in : out) {
        double factor = 0.95 + 0.1 * rng.nextDouble();
        int32_t base = in.input.front();
        in.input.front() = std::max<int32_t>(
            1, static_cast<int32_t>(std::lround(base * factor)));
    }
    return out;
}

std::string
describeInput(const AnalogInput &in)
{
    std::string s = in.workload->name + "[";
    for (size_t i = 0; i < in.input.size(); ++i)
        s += (i ? "," : "") + std::to_string(in.input[i]);
    return s + "]";
}

} // namespace perfbench
