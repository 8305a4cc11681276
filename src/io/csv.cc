#include "io/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "geo/angle.h"

namespace rdbsc::io {
namespace {

// Splits a CSV line on commas (no quoting; the formats are numeric-only).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::stringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  // A trailing comma means an empty final field.
  if (!line.empty() && line.back() == ',') fields.push_back("");
  return fields;
}

util::Status ParseDouble(const std::string& text, int line_number,
                         double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE) {
    return util::Status::InvalidArgument("line " +
                                         std::to_string(line_number) +
                                         ": bad number '" + text + "'");
  }
  while (*end == ' ' || *end == '\r') ++end;
  if (*end != '\0') {
    return util::Status::InvalidArgument("line " +
                                         std::to_string(line_number) +
                                         ": trailing junk in '" + text + "'");
  }
  if (!std::isfinite(value)) {
    return util::Status::InvalidArgument("line " +
                                         std::to_string(line_number) +
                                         ": non-finite number '" + text +
                                         "'");
  }
  *out = value;
  return util::Status::OK();
}

util::StatusOr<std::vector<std::vector<double>>> ReadNumericCsv(
    const std::string& path, size_t columns) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::NotFound("cannot open '" + path + "'");
  }
  std::vector<std::vector<double>> rows;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line_number == 1) continue;  // header
    if (line.empty() || line == "\r") continue;
    std::vector<std::string> fields = SplitCsv(line);
    if (fields.size() != columns) {
      return util::Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": expected " +
          std::to_string(columns) + " columns, got " +
          std::to_string(fields.size()));
    }
    std::vector<double> row(columns);
    for (size_t c = 0; c < columns; ++c) {
      util::Status status = ParseDouble(fields[c], line_number, &row[c]);
      if (!status.ok()) return status;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

util::Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!*out) {
    return util::Status::Internal("cannot write '" + path + "'");
  }
  out->precision(17);
  return util::Status::OK();
}

}  // namespace

util::Status WriteTasksCsv(const std::string& path,
                           const std::vector<core::Task>& tasks) {
  std::ofstream out;
  util::Status status = OpenForWrite(path, &out);
  if (!status.ok()) return status;
  out << "x,y,start,end,beta\n";
  for (const core::Task& t : tasks) {
    out << t.location.x << ',' << t.location.y << ',' << t.start << ','
        << t.end << ',' << t.beta << '\n';
  }
  return util::Status::OK();
}

util::StatusOr<std::vector<core::Task>> ReadTasksCsv(
    const std::string& path) {
  auto rows = ReadNumericCsv(path, 5);
  if (!rows.ok()) return rows.status();
  std::vector<core::Task> tasks;
  tasks.reserve(rows.value().size());
  for (const auto& row : rows.value()) {
    core::Task t;
    t.location = {row[0], row[1]};
    t.start = row[2];
    t.end = row[3];
    t.beta = row[4];
    tasks.push_back(t);
  }
  return tasks;
}

util::Status WriteWorkersCsv(const std::string& path,
                             const std::vector<core::Worker>& workers) {
  std::ofstream out;
  util::Status status = OpenForWrite(path, &out);
  if (!status.ok()) return status;
  out << "x,y,velocity,dir_lo,dir_hi,confidence,available_from\n";
  for (const core::Worker& w : workers) {
    double lo = w.direction.lo();
    double hi = w.direction.hi();
    if (w.direction.width() >= geo::kTwoPi) {
      lo = 0.0;
      hi = geo::kTwoPi;  // sentinel understood by the reader
    }
    out << w.location.x << ',' << w.location.y << ',' << w.velocity << ','
        << lo << ',' << hi << ',' << w.confidence << ','
        << w.available_from << '\n';
  }
  return util::Status::OK();
}

util::StatusOr<std::vector<core::Worker>> ReadWorkersCsv(
    const std::string& path) {
  auto rows = ReadNumericCsv(path, 7);
  if (!rows.ok()) return rows.status();
  std::vector<core::Worker> workers;
  workers.reserve(rows.value().size());
  for (const auto& row : rows.value()) {
    core::Worker w;
    w.location = {row[0], row[1]};
    w.velocity = row[2];
    if (row[3] == 0.0 && row[4] >= geo::kTwoPi) {
      w.direction = geo::AngularInterval::FullCircle();
    } else {
      w.direction = geo::AngularInterval(row[3], row[4]);
    }
    w.confidence = row[5];
    w.available_from = row[6];
    workers.push_back(w);
  }
  return workers;
}

util::Status WriteAssignmentCsv(const std::string& path,
                                const core::Assignment& assignment) {
  std::ofstream out;
  util::Status status = OpenForWrite(path, &out);
  if (!status.ok()) return status;
  out << "worker,task\n";
  for (core::WorkerId j = 0; j < assignment.num_workers(); ++j) {
    out << j << ',' << assignment.TaskOf(j) << '\n';
  }
  return util::Status::OK();
}

util::StatusOr<core::Assignment> ReadAssignmentCsv(const std::string& path) {
  auto rows = ReadNumericCsv(path, 2);
  if (!rows.ok()) return rows.status();
  core::Assignment assignment(static_cast<int>(rows.value().size()));
  for (const auto& row : rows.value()) {
    int worker = static_cast<int>(row[0]);
    int task = static_cast<int>(row[1]);
    if (worker < 0 || worker >= assignment.num_workers()) {
      return util::Status::InvalidArgument("worker id out of range");
    }
    if (task != core::kNoTask) assignment.Assign(worker, task);
  }
  return assignment;
}

util::StatusOr<core::Instance> ReadInstanceCsv(const std::string& tasks_path,
                                               const std::string& workers_path,
                                               double now,
                                               core::ArrivalPolicy policy) {
  auto tasks = ReadTasksCsv(tasks_path);
  if (!tasks.ok()) return tasks.status();
  auto workers = ReadWorkersCsv(workers_path);
  if (!workers.ok()) return workers.status();
  core::Instance instance(std::move(tasks).value(),
                          std::move(workers).value(), now, policy);
  util::Status valid = instance.Validate();
  if (!valid.ok()) return valid;
  return instance;
}

}  // namespace rdbsc::io
