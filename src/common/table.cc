#include "common/table.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace xbs
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    xbs_assert(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    xbs_assert(cells.size() == headers_.size(),
               "row arity %zu != header arity %zu", cells.size(),
               headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::pct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto renderRow = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(widths[c] - row[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = renderRow(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        rule.append(widths[c], '-');
        rule.append(2, ' ');
    }
    while (!rule.empty() && rule.back() == ' ')
        rule.pop_back();
    out += rule + "\n";
    for (const auto &row : rows_)
        out += renderRow(row);
    return out;
}

std::string
TextTable::csv() const
{
    auto quote = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string q = "\"";
        for (char ch : s) {
            if (ch == '"')
                q += '"';
            q += ch;
        }
        return q + "\"";
    };
    std::string out;
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                out += ',';
            out += quote(cells[c]);
        }
        out += '\n';
    };
    line(headers_);
    for (const auto &row : rows_)
        line(row);
    return out;
}

} // namespace xbs
