#include "support/ascii_table.hpp"

#include <cstdio>
#include <sstream>

#include "support/panic.hpp"

namespace paragraph {

void
AsciiTable::addColumn(const std::string &header, Align align)
{
    PARA_ASSERT(rows_.empty(), "define all columns before adding rows");
    columns_.push_back(Column{header, align});
}

void
AsciiTable::beginRow()
{
    if (!rows_.empty()) {
        PARA_ASSERT(rows_.back().size() == columns_.size(),
                    "previous row incomplete");
    }
    rows_.emplace_back();
}

void
AsciiTable::cell(const std::string &text)
{
    PARA_ASSERT(!rows_.empty(), "beginRow() before cell()");
    PARA_ASSERT(rows_.back().size() < columns_.size(), "too many cells");
    rows_.back().push_back(text);
}

void
AsciiTable::cell(uint64_t value)
{
    cell(withCommas(value));
}

void
AsciiTable::cell(int64_t value)
{
    // Negate in unsigned arithmetic: -value overflows for INT64_MIN.
    if (value >= 0) {
        cell(withCommas(static_cast<uint64_t>(value)));
        return;
    }
    std::string text = withCommas(0 - static_cast<uint64_t>(value));
    text.insert(text.begin(), '-');
    cell(text);
}

void
AsciiTable::cell(double value, int precision)
{
    cell(withCommas(value, precision));
}

std::string
AsciiTable::withCommas(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    size_t lead = digits.size() % 3;
    if (lead == 0)
        lead = 3;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (i - lead) % 3 == 0 && i >= lead)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
AsciiTable::withCommas(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value < 0 ? -value : value);
    std::string s(buf);
    size_t dot = s.find('.');
    std::string int_part = dot == std::string::npos ? s : s.substr(0, dot);
    std::string frac_part = dot == std::string::npos ? "" : s.substr(dot);
    uint64_t iv = 0;
    for (char c : int_part)
        iv = iv * 10 + static_cast<uint64_t>(c - '0');
    std::string out = withCommas(iv) + frac_part;
    if (value < 0)
        out.insert(out.begin(), '-');
    return out;
}

void
AsciiTable::print(std::ostream &os) const
{
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].header.size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (row[c].size() > widths[c])
                widths[c] = row[c].size();
        }
    }

    auto emit = [&](const std::string &text, size_t c) {
        size_t pad = widths[c] - text.size();
        if (columns_[c].align == Align::Right)
            os << std::string(pad, ' ') << text;
        else
            os << text << std::string(pad, ' ');
    };

    for (size_t c = 0; c < columns_.size(); ++c) {
        if (c)
            os << "  ";
        emit(columns_[c].header, c);
    }
    os << '\n';
    size_t total = 0;
    for (size_t c = 0; c < columns_.size(); ++c)
        total += widths[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << "  ";
            emit(row[c], c);
        }
        os << '\n';
    }
}

std::string
AsciiTable::toString() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

} // namespace paragraph
