#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "stats/text_table.hpp"

namespace pinsim::core {

void print_header(std::ostream& out, const std::string& artifact,
                  const std::string& description) {
  out << std::string(72, '=') << '\n'
      << artifact << " — " << description << '\n'
      << "(The Art of CPU-Pinning, GhatrehSamani et al., ICPP 2020 — "
         "pinsim reproduction)\n"
      << std::string(72, '=') << '\n';
}

void print_ratio_table(std::ostream& out, const stats::Figure& figure,
                       int precision) {
  const OverheadAnalysis analysis = analyze_overhead(figure);
  std::vector<std::string> header;
  header.push_back("overhead ratio vs BM");
  for (const auto& label : figure.x_labels()) header.push_back(label);
  header.push_back("class");
  stats::TextTable table(std::move(header));
  for (const auto& series : analysis.series) {
    std::vector<std::string> row;
    row.push_back(series.series);
    for (const auto& ratio : series.ratios) {
      if (!ratio.has_value()) {
        row.push_back("-");
        continue;
      }
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(precision) << *ratio << "x";
      row.push_back(cell.str());
    }
    row.push_back(series.has_pso ? "PSO"
                                 : (series.pto_dominated ? "PTO" : "~1"));
    table.add_row(std::move(row));
  }
  out << table.render();
}

void print_figure_report(std::ostream& out, const stats::Figure& figure,
                         const ReportOptions& options) {
  out << figure.title() << "\nMean execution time in seconds (± 95% CI):\n"
      << stats::figure_table(figure, options.precision).render() << '\n';
  if (options.bars) {
    out << stats::figure_bars(figure) << '\n';
  }
  if (options.ratios) {
    print_ratio_table(out, figure, options.precision);
    out << '\n';
  }
  if (options.csv) {
    out << "CSV:\n"
        << stats::figure_table(figure, options.precision).render_csv()
        << '\n';
  }
}

std::string json_escape(const std::string& text) {
  std::ostringstream os;
  for (const char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

namespace {

void write_figure_json(std::ostream& out, const stats::Figure& figure) {
  out << "    {\n      \"title\": \"" << json_escape(figure.title())
      << "\",\n      \"x_labels\": [";
  for (std::size_t i = 0; i < figure.x_labels().size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(figure.x_labels()[i]) << '"';
  }
  out << "],\n      \"series\": [\n";
  const auto& all = figure.series();
  for (std::size_t s = 0; s < all.size(); ++s) {
    out << "        {\"name\": \"" << json_escape(all[s].name())
        << "\", \"points\": [";
    for (std::size_t x = 0; x < figure.x_labels().size(); ++x) {
      if (x > 0) out << ", ";
      const auto point = all[s].at(x);
      if (point.has_value()) {
        out << "{\"mean\": " << point->mean
            << ", \"half_width\": " << point->half_width << "}";
      } else {
        out << "null";
      }
    }
    out << "]}" << (s + 1 < all.size() ? "," : "") << '\n';
  }
  out << "      ]\n    }";
}

}  // namespace

void write_bench_json(std::ostream& out, const BenchRunMeta& meta,
                      const std::vector<const stats::Figure*>& figures) {
  out << std::setprecision(17);
  out << "{\n  \"artifact\": \"" << json_escape(meta.artifact)
      << "\",\n  \"repetitions\": " << meta.repetitions
      << ",\n  \"jobs\": " << meta.jobs
      << ",\n  \"wall_seconds\": " << meta.wall_seconds
      << ",\n  \"figures\": [\n";
  for (std::size_t i = 0; i < figures.size(); ++i) {
    write_figure_json(out, *figures[i]);
    out << (i + 1 < figures.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace pinsim::core
