#include "runner/orchestrator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table.h"

namespace sprout {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Worker exit codes with a fixed meaning (anything else is "crashed").
constexpr int kWorkerCrashExit = 70;    // fault-injection crash hook
constexpr int kWorkerJournalExit = 71;  // could not open/append its journal

// Matches a fault-injection entry: n attempts affected, n < 0 = always.
bool fault_matches(const std::vector<std::pair<std::size_t, int>>& table,
                   std::size_t index, int attempt) {
  for (const auto& [cell, n] : table) {
    if (cell == index) return n < 0 || attempt <= n;
  }
  return false;
}

// --- worker side ---------------------------------------------------------

// Blocking line read; "" on EOF.  The coordinator's commands are short
// ("R <idx> <attempt>" / "Q"), so byte-at-a-time reads are fine.
std::string read_line_fd(int fd) {
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n <= 0) return std::string();  // EOF/error: treated as "quit"
    if (c == '\n') return line;
    line.push_back(c);
  }
}

void write_all_fd(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return;  // coordinator gone; the worker will soon see EOF
    off += static_cast<std::size_t>(n);
  }
}

// Strips newlines so a cell's error message survives the line protocol.
std::string one_line(std::string msg) {
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return msg;
}

// The forked worker: read a cell index, run it, append the record to this
// slot's journal, ack — forever.  Exits only via _exit (never back into
// the caller's stack), so inherited stdio buffers are never double-flushed.
[[noreturn]] void worker_main(const SweepSpec& spec,
                              const OrchestratorOptions& options, int slot,
                              int cmd_fd, int ack_fd) {
  // Runtime stamps feed the metrics stream, so they are taken exactly when
  // one is written.
  const bool stamp_runtime = !options.metrics_out.empty();
  const std::string path =
      options.journal_dir + "/" + journal_file_name(slot);
  std::error_code ec;
  const bool fresh = !fs::exists(path, ec) || fs::file_size(path, ec) == 0;
  std::ofstream journal(path, std::ios::binary | std::ios::app);
  if (!journal) _exit(kWorkerJournalExit);
  if (fresh) {
    write_journal_header(journal, spec, slot);
    journal.flush();
    if (!journal) _exit(kWorkerJournalExit);
  }

  for (;;) {
    const std::string line = read_line_fd(cmd_fd);
    if (line.empty() || line[0] == 'Q') {
      if (stamp_runtime) {
        // Parting snapshot: this worker's whole obs registry (cache
        // hit/miss tallies always; filter/kernel counters when SPROUT_OBS
        // was on) — compact JSON is single-line, so it rides the ack
        // protocol as one "S" record.
        std::ostringstream snap;
        snap << "S ";
        obs::Registry::instance().write_json_compact(snap);
        snap << "\n";
        write_all_fd(ack_fd, snap.str());
      }
      _exit(0);
    }
    std::size_t index = 0;
    int attempt = 1;
    {
      std::istringstream is(line);
      char tag = 0;
      is >> tag >> index >> attempt;
      if (tag != 'R' || !is) _exit(1);
    }

    if (fault_matches(options.crash_cells, index, attempt)) {
      _exit(kWorkerCrashExit);
    }
    if (fault_matches(options.hang_cells, index, attempt)) {
      for (;;) pause();  // until the coordinator's timeout SIGKILLs us
    }

    try {
      // One-cell shard: the exact seed derivation and execution path of a
      // static shard, so orchestrated == sharded == serial, bit for bit.
      const Clock::time_point cell_start = Clock::now();
      JournalRecord record =
          std::move(run_shard(spec, {index}, /*threads=*/1).records.at(0));
      if (stamp_runtime) {
        // Execution telemetry, stamped before journaling so the record —
        // and every merge of it — carries the numbers.  Gated by
        // metrics_out (NOT the SPROUT_OBS env), so env-enabled obs runs
        // stay byte-identical to obs-off runs.
        record.result.runtime.recorded = true;
        record.result.runtime.wall_s =
            std::chrono::duration<double>(Clock::now() - cell_start).count();
        struct rusage usage {};
        if (getrusage(RUSAGE_SELF, &usage) == 0) {
          // ru_maxrss is KiB on Linux.
          record.result.runtime.peak_rss_bytes =
              static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
        }
        record.result.runtime.attempt = attempt;
      }
      write_journal_record(journal, record);
      journal.flush();
      if (!journal) {
        write_all_fd(ack_fd, "F " + std::to_string(index) +
                                 " journal append failed (disk full?)\n");
        continue;
      }
      if (stamp_runtime) {
        // Extended ack: the coordinator streams these into metrics_out
        // without re-reading the journal.
        std::ostringstream ack;
        ack << "D " << index << ' ';
        ack.precision(17);
        ack << record.result.runtime.wall_s << ' '
            << record.result.runtime.peak_rss_bytes << "\n";
        write_all_fd(ack_fd, ack.str());
      } else {
        write_all_fd(ack_fd, "D " + std::to_string(index) + "\n");
      }
    } catch (const std::exception& e) {
      write_all_fd(ack_fd,
                   "F " + std::to_string(index) + " " + one_line(e.what()) +
                       "\n");
    }
  }
}

// --- coordinator side ----------------------------------------------------

struct Worker {
  pid_t pid = -1;
  int cmd_fd = -1;  // coordinator -> worker
  int ack_fd = -1;  // worker -> coordinator
  int slot = 0;     // journal id
  std::string buffer;
  bool alive = false;
  bool busy = false;
  std::size_t cell = 0;
  int attempt = 0;
  Clock::time_point started;
  bool timed_out = false;
};

struct RetryEntry {
  std::size_t index = 0;
  Clock::time_point not_before;
};

std::string describe_status(int status) {
  if (WIFSIGNALED(status)) {
    return "worker killed by signal " + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kWorkerJournalExit) {
      return "worker could not append to its journal";
    }
    return "worker exited with status " + std::to_string(code);
  }
  return "worker died";
}

// RAII: orchestrate writes into possibly-broken pipes of dying workers;
// SIGPIPE would kill the coordinator, so it is ignored for the duration.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() { old_ = signal(SIGPIPE, SIG_IGN); }
  ~ScopedSigpipeIgnore() { signal(SIGPIPE, old_); }

 private:
  using Handler = void (*)(int);
  Handler old_;
};

class Coordinator {
 public:
  Coordinator(const SweepSpec& spec, const OrchestratorOptions& options)
      : spec_(spec),
        options_(options),
        total_(spec.cells.size()),
        completed_(spec.cells.size(), false),
        poisoned_flag_(spec.cells.size(), false),
        fingerprint_(sweep_fingerprint(spec)),
        out_(options.progress_out != nullptr ? *options.progress_out
                                             : std::cerr),
        // \r-rewriting is for humans at real terminals only: an explicit
        // progress_out (tests) or a redirected/CI stderr gets sparse plain
        // lines instead of carriage-return spam.
        tty_(options.progress_out == nullptr &&
             isatty(STDERR_FILENO) == 1) {}

  OrchestrateOutcome run() {
    validate_options();
    fs::create_directories(options_.journal_dir);
    if (!options_.trace_out.empty()) obs::Tracer::instance().start();
    if (!options_.metrics_out.empty()) {
      metrics_.open(options_.metrics_out, std::ios::binary | std::ios::trunc);
      if (!metrics_) {
        throw std::runtime_error("cannot write metrics file " +
                                 options_.metrics_out);
      }
      metrics_ << "{\"schema\": \"sprout-metrics-v1\", \"sweep_fingerprint\": "
                  "\""
               << fingerprint_ << "\", \"total_cells\": " << total_ << "}\n";
      metrics_.flush();
    }
    resume_from_journals();

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < total_; ++i) {
      if (!completed_[i]) todo.push_back(i);
    }
    pending_ = longest_first_order(spec_.cells, std::move(todo));

    if (!pending_.empty()) {
      ScopedSigpipeIgnore ignore_sigpipe;
      int want = options_.workers > 0
                     ? options_.workers
                     : static_cast<int>(std::thread::hardware_concurrency());
      if (want < 1) want = 1;
      want = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(want), pending_.size()));
      for (int w = 0; w < want; ++w) spawn_worker(w);
      event_loop();
      shutdown_workers();
    }

    OrchestrateOutcome outcome;
    outcome.halted = halted_;
    outcome.resumed_cells = resumed_;
    outcome.executed_cells = executed_;
    outcome.poisoned = poisoned_;
    if (!halted_ && poisoned_.empty() && completed_count_ == total_) {
      outcome.merged = assemble();
      outcome.complete = true;
    }
    progress_line(/*final_line=*/true);
    if (metrics_.is_open()) {
      metrics_ << "{\"event\": \"summary\", \"completed\": "
               << completed_count_ << ", \"total\": " << total_
               << ", \"resumed\": " << resumed_
               << ", \"executed\": " << executed_
               << ", \"poisoned\": " << poisoned_.size()
               << ", \"halted\": " << (halted_ ? "true" : "false")
               << ", \"elapsed_s\": ";
      write_json_double(
          metrics_,
          std::chrono::duration<double>(Clock::now() - start_).count());
      metrics_ << ", \"registry\": ";
      obs::Registry::instance().write_json_compact(metrics_);
      metrics_ << "}\n";
      metrics_.flush();
    }
    if (!options_.trace_out.empty()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      std::ofstream trace(options_.trace_out,
                          std::ios::binary | std::ios::trunc);
      if (trace) tracer.write_json(trace);
      tracer.stop();
    }
    return outcome;
  }

 private:
  void validate_options() const {
    if (options_.journal_dir.empty()) {
      throw std::invalid_argument("journal_dir: must be set");
    }
    if (options_.workers < 0) {
      throw std::invalid_argument("workers: must be a positive worker count "
                                  "(or 0 for all cores)");
    }
    if (options_.max_attempts < 1) {
      throw std::invalid_argument("max_attempts: must be >= 1");
    }
    if (options_.retry_backoff_s < 0.0 || options_.cell_timeout_s < 0.0) {
      throw std::invalid_argument(
          "retry_backoff_s/cell_timeout_s: must be >= 0");
    }
  }

  void resume_from_journals() {
    for (const std::string& path : list_journal_files(options_.journal_dir)) {
      const ShardResult scan =
          read_journal_file(path, /*allow_truncated_tail=*/true);
      if (scan.sweep_fingerprint != fingerprint_ ||
          scan.total_cells != total_) {
        throw std::runtime_error(
            path + ": journal was written for a different grid (fingerprint " +
            std::to_string(scan.sweep_fingerprint) + " over " +
            std::to_string(scan.total_cells) + " cells; this grid is " +
            std::to_string(fingerprint_) + " over " + std::to_string(total_) +
            "): refusing to resume");
      }
      if (scan.dropped_bytes > 0) {
        // Heal the kill -9 wound on disk, so workers append after the last
        // complete record and the strict final replay sees a clean file.
        std::error_code ec;
        const auto size = fs::file_size(path, ec);
        if (!ec && size >= scan.dropped_bytes) {
          fs::resize_file(path, size - scan.dropped_bytes, ec);
        }
        if (ec) {
          throw std::runtime_error(path +
                                   ": cannot truncate half-written record");
        }
        note(path + ": dropped " + std::to_string(scan.dropped_bytes) +
             " bytes of a half-written record");
      }
      for (const JournalRecord& record : scan.records) {
        if (record.fingerprint !=
            scenario_fingerprint(spec_.cells[record.index])) {
          throw std::runtime_error(
              path + ": cell " + std::to_string(record.index) +
              " fingerprint disagrees with this grid's cell: the journal was "
              "not produced from this grid");
        }
        if (completed_[record.index]) {
          throw std::runtime_error(
              path + ": cell " + std::to_string(record.index) +
              " is already journaled elsewhere — duplicate coverage");
        }
        completed_[record.index] = true;
        ++completed_count_;
        ++resumed_;
      }
    }
    if (resumed_ > 0) {
      note("resumed " + std::to_string(resumed_) + "/" +
           std::to_string(total_) + " cells from " + options_.journal_dir);
    }
  }

  void spawn_worker(int slot) {
    int cmd[2];
    int ack[2];
    if (pipe(cmd) != 0 || pipe(ack) != 0) {
      throw std::runtime_error("orchestrator: pipe() failed: " +
                               std::string(std::strerror(errno)));
    }
    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("orchestrator: fork() failed: " +
                               std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      close(cmd[1]);
      close(ack[0]);
      worker_main(spec_, options_, slot, cmd[0], ack[1]);  // never returns
    }
    close(cmd[0]);
    close(ack[1]);
    Worker w;
    w.pid = pid;
    w.cmd_fd = cmd[1];
    w.ack_fd = ack[0];
    w.slot = slot;
    w.alive = true;
    workers_.push_back(w);
    obs::count("orchestrator.workers_spawned");
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.active()) {
      tracer.instant("spawn worker " + std::to_string(slot), "worker", slot);
    }
  }

  // The most expensive cell that is ready to run right now, if any.
  std::optional<std::size_t> take_ready_cell(Clock::time_point now) {
    std::size_t best = retries_.size();
    for (std::size_t k = 0; k < retries_.size(); ++k) {
      if (retries_[k].not_before > now) continue;
      if (best == retries_.size() ||
          estimated_cost(spec_.cells[retries_[k].index]) >
              estimated_cost(spec_.cells[retries_[best].index])) {
        best = k;
      }
    }
    if (best != retries_.size()) {
      const std::size_t index = retries_[best].index;
      retries_.erase(retries_.begin() +
                     static_cast<std::ptrdiff_t>(best));
      return index;
    }
    if (!pending_.empty()) {
      const std::size_t index = pending_.front();
      pending_.erase(pending_.begin());
      return index;
    }
    return std::nullopt;
  }

  void dispatch(Clock::time_point now) {
    for (Worker& w : workers_) {
      if (!w.alive || w.busy) continue;
      const std::optional<std::size_t> cell = take_ready_cell(now);
      if (!cell.has_value()) return;
      w.busy = true;
      w.cell = *cell;
      w.attempt = attempts_[*cell] + 1;
      w.started = now;
      w.timed_out = false;
      obs::count("orchestrator.dispatches");
      const std::string msg = "R " + std::to_string(w.cell) + " " +
                              std::to_string(w.attempt) + "\n";
      std::size_t off = 0;
      while (off < msg.size()) {
        const ssize_t n =
            write(w.cmd_fd, msg.data() + off, msg.size() - off);
        if (n <= 0) break;  // dead worker: waitpid will reclaim the cell
        off += static_cast<std::size_t>(n);
      }
    }
  }

  void on_done(Worker& w, std::size_t index, double wall_s,
               std::int64_t peak_rss_bytes) {
    w.busy = false;
    attempts_.erase(index);
    if (!completed_[index]) {
      completed_[index] = true;
      ++completed_count_;
      ++executed_;
      executed_cost_ += estimated_cost(spec_.cells[index]);
      obs::count("orchestrator.cells_completed");
      if (metrics_.is_open()) {
        metrics_ << "{\"event\": \"cell\", \"index\": " << index
                 << ", \"worker\": " << w.slot
                 << ", \"attempt\": " << w.attempt << ", \"wall_s\": ";
        write_json_double(metrics_, wall_s);
        metrics_ << ", \"peak_rss_bytes\": " << peak_rss_bytes << "}\n";
        metrics_.flush();
      }
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.active()) {
        // The cell's span occupies its worker slot's lane, from dispatch
        // to ack.
        const auto begin_us =
            std::chrono::duration_cast<std::chrono::microseconds>(w.started -
                                                                  start_)
                .count();
        const auto end_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - start_)
                                .count();
        tracer.complete("cell " + std::to_string(index), "cell", begin_us,
                        end_us - begin_us, w.slot);
      }
    }
    progress_line(false);
    if (options_.halt_after_cells > 0 &&
        executed_ >= options_.halt_after_cells) {
      halt();
    }
  }

  void on_fail(std::size_t index, const std::string& error) {
    const int tries = ++attempts_[index];
    if (tries >= options_.max_attempts) {
      poisoned_.push_back({index, tries, error});
      poisoned_flag_[index] = true;
      obs::count("orchestrator.cells_poisoned");
      if (metrics_.is_open()) {
        metrics_ << "{\"event\": \"poison\", \"index\": " << index
                 << ", \"attempts\": " << tries << ", \"error\": ";
        write_json_string(metrics_, error);
        metrics_ << "}\n";
        metrics_.flush();
      }
      note("cell " + std::to_string(index) + " poisoned after " +
           std::to_string(tries) + " attempts: " + error);
      return;
    }
    obs::count("orchestrator.retries");
    if (metrics_.is_open()) {
      metrics_ << "{\"event\": \"retry\", \"index\": " << index
               << ", \"attempt\": " << tries << ", \"error\": ";
      write_json_string(metrics_, error);
      metrics_ << "}\n";
      metrics_.flush();
    }
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.active()) {
      tracer.instant("retry cell " + std::to_string(index), "fault",
                     obs::Tracer::current_lane());
    }
    const double backoff =
        options_.retry_backoff_s * static_cast<double>(1 << (tries - 1));
    RetryEntry retry;
    retry.index = index;
    retry.not_before =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff));
    retries_.push_back(retry);
    note("cell " + std::to_string(index) + " attempt " +
         std::to_string(tries) + " failed (" + error + "); retrying in " +
         format_double(backoff, 2) + " s");
  }

  void process_acks(Worker& w) {
    std::string::size_type at;
    while ((at = w.buffer.find('\n')) != std::string::npos) {
      const std::string line = w.buffer.substr(0, at);
      w.buffer.erase(0, at + 1);
      if (line.empty()) continue;
      if (line[0] == 'S') {
        // Worker's parting registry snapshot (already compact JSON).
        if (metrics_.is_open() && line.size() > 2) {
          metrics_ << "{\"event\": \"worker_summary\", \"worker\": " << w.slot
                   << ", \"registry\": " << line.substr(2) << "}\n";
          metrics_.flush();
        }
        continue;
      }
      std::istringstream is(line);
      char tag = 0;
      std::size_t index = 0;
      is >> tag >> index;
      if (!is || (tag != 'D' && tag != 'F')) continue;
      if (tag == 'D') {
        // Extended ack under metrics_out: "D <idx> <wall_s> <rss>".
        double wall_s = 0.0;
        std::int64_t peak_rss_bytes = 0;
        is >> wall_s >> peak_rss_bytes;
        on_done(w, index, wall_s, peak_rss_bytes);
        if (halted_) return;
      } else {
        std::string error;
        std::getline(is, error);
        if (!error.empty() && error.front() == ' ') error.erase(0, 1);
        w.busy = false;
        on_fail(index, error.empty() ? "cell failed" : error);
      }
    }
  }

  // A dead worker's journal is the truth about what it finished: anything
  // journaled before the crash counts as done (re-running it would journal
  // a duplicate record); only a cell that never reached the journal is
  // retried.
  void handle_death(Worker& w, int status) {
    w.alive = false;
    close(w.cmd_fd);
    close(w.ack_fd);
    w.cmd_fd = w.ack_fd = -1;
    obs::count("orchestrator.worker_deaths");
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.active()) {
      tracer.instant("worker " + std::to_string(w.slot) + " died", "worker",
                     w.slot);
    }

    const std::string path =
        options_.journal_dir + "/" + journal_file_name(w.slot);
    std::error_code ec;
    if (fs::exists(path, ec)) {
      const ShardResult scan =
          read_journal_file(path, /*allow_truncated_tail=*/true);
      if (scan.dropped_bytes > 0) {
        const auto size = fs::file_size(path, ec);
        if (!ec && size >= scan.dropped_bytes) {
          fs::resize_file(path, size - scan.dropped_bytes, ec);
        }
      }
      for (const JournalRecord& record : scan.records) {
        if (completed_[record.index]) continue;
        completed_[record.index] = true;
        ++completed_count_;
        ++executed_;
        executed_cost_ += estimated_cost(spec_.cells[record.index]);
        attempts_.erase(record.index);
        if (w.busy && w.cell == record.index) w.busy = false;
      }
    }
    if (w.busy) {
      const std::string error =
          w.timed_out ? "cell timed out after " +
                            format_double(options_.cell_timeout_s, 1) +
                            " s; worker killed"
                      : describe_status(status);
      on_fail(w.cell, error);
      w.busy = false;
    }

    const std::size_t live = live_workers();
    const std::size_t remaining =
        pending_.size() + retries_.size() + inflight();
    if (!halted_ && remaining > 0 && live < remaining) {
      spawn_worker(w.slot);  // reuse the slot: append to the same journal
    }
  }

  void reap(bool block) {
    for (;;) {
      int status = 0;
      const pid_t pid = waitpid(-1, &status, block ? 0 : WNOHANG);
      if (pid <= 0) return;
      for (Worker& w : workers_) {
        if (w.alive && w.pid == pid) {
          handle_death(w, status);
          break;
        }
      }
      if (block && live_workers() == 0) return;
    }
  }

  void enforce_timeouts(Clock::time_point now) {
    if (options_.cell_timeout_s <= 0.0) return;
    const auto limit = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options_.cell_timeout_s));
    for (Worker& w : workers_) {
      if (w.alive && w.busy && !w.timed_out && now - w.started > limit) {
        w.timed_out = true;
        kill(w.pid, SIGKILL);  // reaped as an ordinary death next pass
      }
    }
  }

  void event_loop() {
    while (!halted_ &&
           completed_count_ + poisoned_.size() < total_) {
      const Clock::time_point now = Clock::now();
      dispatch(now);

      std::vector<pollfd> fds;
      std::vector<Worker*> by_fd;
      for (Worker& w : workers_) {
        if (w.alive && w.ack_fd >= 0) {
          fds.push_back({w.ack_fd, POLLIN, 0});
          by_fd.push_back(&w);
        }
      }
      if (fds.empty() && pending_.empty() && retries_.empty()) {
        // Nothing running and nothing runnable: every remaining cell is
        // poisoned (counted) or the loop condition would have exited.
        return;
      }
      (void)poll(fds.empty() ? nullptr : fds.data(),
                 static_cast<nfds_t>(fds.size()), 100);
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP)) == 0) continue;
        char buf[4096];
        const ssize_t n = read(fds[k].fd, buf, sizeof buf);
        if (n > 0) {
          by_fd[k]->buffer.append(buf, static_cast<std::size_t>(n));
          process_acks(*by_fd[k]);
          if (halted_) return;
        }
      }
      reap(/*block=*/false);
      enforce_timeouts(Clock::now());
    }
  }

  // The halt hook: SIGKILL everything mid-run, exactly like an operator's
  // kill -9 of the job tree, and stop without assembling.
  void halt() {
    halted_ = true;
    for (Worker& w : workers_) {
      if (w.alive) kill(w.pid, SIGKILL);
    }
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      int status = 0;
      waitpid(w.pid, &status, 0);
      w.alive = false;
      close(w.cmd_fd);
      close(w.ack_fd);
    }
  }

  void shutdown_workers() {
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      std::size_t off = 0;
      const std::string quit = "Q\n";
      while (off < quit.size()) {
        const ssize_t n =
            write(w.cmd_fd, quit.data() + off, quit.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      close(w.cmd_fd);
      w.cmd_fd = -1;
    }
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      // Drain the ack pipe to EOF before reaping: a quitting worker's last
      // write is its "S" registry snapshot (metrics_out runs).
      if (w.ack_fd >= 0) {
        char buf[4096];
        for (;;) {
          const ssize_t n = read(w.ack_fd, buf, sizeof buf);
          if (n <= 0) break;
          w.buffer.append(buf, static_cast<std::size_t>(n));
        }
        process_acks(w);
      }
      int status = 0;
      waitpid(w.pid, &status, 0);
      w.alive = false;
      if (w.ack_fd >= 0) close(w.ack_fd);
    }
  }

  SweepResult assemble() {
    std::vector<ShardResult> shards;
    for (const std::string& path :
         list_journal_files(options_.journal_dir)) {
      // Strict scan: after a healthy run (and tail truncation on resume)
      // every journal must replay cleanly, or the merge refuses.
      shards.push_back(read_journal_file(path, /*allow_truncated_tail=*/false));
    }
    if (shards.empty()) {
      // An empty grid orchestrates to an empty sweep.
      SweepResult empty;
      empty.fingerprint = fingerprint_;
      return empty;
    }
    SweepResult merged = merge_shards(std::move(shards));
    verify_sweep_result(merged, spec_);
    return merged;
  }

  std::size_t live_workers() const {
    std::size_t n = 0;
    for (const Worker& w : workers_) {
      if (w.alive) ++n;
    }
    return n;
  }

  std::size_t inflight() const {
    std::size_t n = 0;
    for (const Worker& w : workers_) {
      if (w.alive && w.busy) ++n;
    }
    return n;
  }

  void note(const std::string& message) {
    if (!options_.progress) return;
    if (line_active_) {
      // A \r-rewritten progress line is on the terminal row; move past it
      // so the note does not splice into it.
      out_ << "\n";
      line_active_ = false;
    }
    out_ << "orchestrate: " << message << "\n";
  }

  void progress_line(bool final_line) {
    // The metrics stream gets its own throttled progress events even when
    // terminal progress is off.
    const Clock::time_point now = Clock::now();
    if (metrics_.is_open() &&
        (final_line ||
         now - last_metrics_progress_ >= std::chrono::milliseconds(500))) {
      last_metrics_progress_ = now;
      metrics_ << "{\"event\": \"progress\", \"completed\": "
               << completed_count_ << ", \"total\": " << total_
               << ", \"poisoned\": " << poisoned_.size()
               << ", \"elapsed_s\": ";
      write_json_double(metrics_,
                        std::chrono::duration<double>(now - start_).count());
      metrics_ << "}\n";
      metrics_.flush();
    }
    if (!options_.progress) return;
    // A real terminal gets a \r-rewritten live line twice a second; a
    // redirected stderr (CI) gets a plain line every few seconds so logs
    // stay readable instead of accumulating carriage-return spam.
    const auto throttle = tty_ ? std::chrono::milliseconds(500)
                               : std::chrono::milliseconds(5000);
    if (!final_line && now - last_progress_ < throttle) return;
    last_progress_ = now;
    std::ostringstream line;
    line << "orchestrate: " << completed_count_ << "/" << total_ << " cells";
    if (!poisoned_.empty()) line << " (" << poisoned_.size() << " poisoned)";
    if (!final_line) {
      std::vector<std::size_t> remaining;
      for (std::size_t i = 0; i < total_; ++i) {
        if (!completed_[i] && !poisoned_flag_[i]) remaining.push_back(i);
      }
      const std::size_t live = std::max<std::size_t>(1, live_workers());
      const double elapsed =
          std::chrono::duration<double>(now - start_).count();
      if (executed_cost_ > 0.0 && elapsed > 0.0 && !remaining.empty()) {
        // ETA = LPT makespan of what's left over the live workers, at the
        // per-worker rate this run has actually been retiring cost.
        double makespan = 0.0;
        for (const std::vector<std::size_t>& bucket :
             lpt_partition(spec_.cells, std::move(remaining),
                           static_cast<int>(live))) {
          double cost = 0.0;
          for (const std::size_t i : bucket) {
            cost += estimated_cost(spec_.cells[i]);
          }
          makespan = std::max(makespan, cost);
        }
        const double rate =
            executed_cost_ / elapsed / static_cast<double>(live);
        const double eta = makespan / rate;
        line << ", ~" << format_double(eta, 1) << " s left on " << live
             << " worker" << (live == 1 ? "" : "s");
      }
    }
    if (tty_) {
      // Rewrite in place; \x1b[K clears the stale tail of a longer
      // previous line.  The final line is committed with a newline.
      out_ << '\r' << line.str() << "\x1b[K";
      if (final_line) out_ << '\n';
      out_.flush();
      line_active_ = !final_line;
    } else {
      out_ << line.str() << "\n";
    }
  }

  const SweepSpec& spec_;
  const OrchestratorOptions& options_;
  const std::size_t total_;
  std::vector<bool> completed_;
  std::vector<bool> poisoned_flag_;
  const std::uint64_t fingerprint_;
  std::ostream& out_;
  const bool tty_;
  bool line_active_ = false;  // a \r-rewritten line is on the terminal row
  std::ofstream metrics_;

  std::vector<Worker> workers_;
  std::vector<std::size_t> pending_;  // longest-first
  std::vector<RetryEntry> retries_;
  std::unordered_map<std::size_t, int> attempts_;
  std::vector<PoisonedCell> poisoned_;
  std::size_t completed_count_ = 0;
  std::size_t resumed_ = 0;
  std::size_t executed_ = 0;
  double executed_cost_ = 0.0;
  bool halted_ = false;
  Clock::time_point start_ = Clock::now();
  // An hour before start_, so the first progress call always emits; with
  // time_point::min(), `now - last` would overflow (undefined behaviour).
  Clock::time_point last_progress_ = start_ - std::chrono::hours(1);
  Clock::time_point last_metrics_progress_ = last_progress_;
};

}  // namespace

OrchestrateOutcome orchestrate_sweep(const SweepSpec& spec,
                                     const OrchestratorOptions& options) {
  Coordinator coordinator(spec, options);
  return coordinator.run();
}

}  // namespace sprout
