#include "runner/config_file.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dca::runner {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

bool parse_int(const std::string& v, std::int64_t& out) {
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return end != v.c_str() && *end == '\0';
}

bool parse_double(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

/// "<cell>[,<cell>...] @ <start_s>..<end_s>"  (seconds, decimals allowed).
bool parse_partition_spec(const std::string& v, net::PartitionSpec& out) {
  const auto at = v.find('@');
  if (at == std::string::npos) return false;
  std::istringstream cells(trim(v.substr(0, at)));
  std::string tok;
  while (std::getline(cells, tok, ',')) {
    std::int64_t c = 0;
    if (!parse_int(trim(tok), c)) return false;
    out.cells.push_back(static_cast<cell::CellId>(c));
  }
  if (out.cells.empty()) return false;
  const std::string range = trim(v.substr(at + 1));
  const auto dots = range.find("..");
  if (dots == std::string::npos) return false;
  double start_s = 0.0;
  double end_s = 0.0;
  if (!parse_double(trim(range.substr(0, dots)), start_s)) return false;
  if (!parse_double(trim(range.substr(dots + 2)), end_s)) return false;
  out.start = sim::from_seconds(start_s);
  out.end = sim::from_seconds(end_s);
  return true;
}

}  // namespace

bool apply_scenario_text(const std::string& text, ScenarioConfig& config,
                         std::string& error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    const auto fail = [&](const char* what) {
      error = "line " + std::to_string(lineno) + ": bad value for " + key + " (" +
              what + "): '" + val + "'";
      return false;
    };
    std::int64_t i = 0;
    double d = 0.0;
    bool b = false;

    if (key == "rows") {
      if (!parse_int(val, i)) return fail("int");
      config.rows = static_cast<int>(i);
    } else if (key == "cols") {
      if (!parse_int(val, i)) return fail("int");
      config.cols = static_cast<int>(i);
    } else if (key == "radius") {
      if (!parse_int(val, i)) return fail("int");
      config.interference_radius = static_cast<int>(i);
    } else if (key == "channels") {
      if (!parse_int(val, i)) return fail("int");
      config.n_channels = static_cast<int>(i);
    } else if (key == "cluster") {
      if (!parse_int(val, i)) return fail("int");
      config.cluster = static_cast<int>(i);
    } else if (key == "torus") {
      if (!parse_bool(val, b)) return fail("bool");
      config.wrap = b ? cell::Wrap::kToroidal : cell::Wrap::kBounded;
    } else if (key == "greedy_plan") {
      if (!parse_bool(val, b)) return fail("bool");
      config.greedy_plan = b;
    } else if (key == "holding_s") {
      if (!parse_double(val, d)) return fail("number");
      config.mean_holding_s = d;
    } else if (key == "latency_ms") {
      if (!parse_double(val, d)) return fail("number");
      config.latency = sim::from_seconds(d / 1000.0);
    } else if (key == "jitter_ms") {
      if (!parse_double(val, d)) return fail("number");
      config.latency_jitter = sim::from_seconds(d / 1000.0);
    } else if (key == "dwell_s") {
      if (!parse_double(val, d)) return fail("number");
      config.mean_dwell_s = d;
    } else if (key == "duration_min") {
      if (!parse_double(val, d)) return fail("number");
      config.duration = sim::from_seconds(d * 60.0);
    } else if (key == "warmup_min") {
      if (!parse_double(val, d)) return fail("number");
      config.warmup = sim::from_seconds(d * 60.0);
    } else if (key == "seed") {
      if (!parse_int(val, i)) return fail("int");
      config.seed = static_cast<std::uint64_t>(i);
    } else if (key == "max_update_attempts") {
      if (!parse_int(val, i)) return fail("int");
      config.max_update_attempts = static_cast<int>(i);
    } else if (key == "update_pick") {
      if (val == "random") {
        config.update_pick = proto::ChannelPick::kRandom;
      } else if (val == "lowest") {
        config.update_pick = proto::ChannelPick::kLowest;
      } else if (val == "round-robin") {
        config.update_pick = proto::ChannelPick::kRoundRobin;
      } else {
        return fail("random|lowest|round-robin");
      }
    } else if (key == "policy") {
      proto::PolicySpec spec;
      std::string specError;
      if (!proto::parse_policy_spec(val, spec, specError)) {
        error = "line " + std::to_string(lineno) + ": " + specError;
        return false;
      }
      config.policy = std::move(spec);
    } else if (key == "theta_low") {
      if (!parse_int(val, i)) return fail("int");
      config.adaptive.theta_low = static_cast<int>(i);
    } else if (key == "theta_high") {
      if (!parse_int(val, i)) return fail("int");
      config.adaptive.theta_high = static_cast<int>(i);
    } else if (key == "alpha") {
      if (!parse_int(val, i)) return fail("int");
      config.adaptive.alpha = static_cast<int>(i);
    } else if (key == "window_s") {
      if (!parse_double(val, d)) return fail("number");
      config.adaptive.window = sim::from_seconds(d);
    } else if (key == "strict_fig4") {
      if (!parse_bool(val, b)) return fail("bool");
      config.adaptive.strict_fig4 = b;
    } else if (key == "best_heuristic") {
      if (!parse_bool(val, b)) return fail("bool");
      config.adaptive.use_best_heuristic = b;
    } else if (key == "repack") {
      if (!parse_bool(val, b)) return fail("bool");
      config.adaptive.repack = b;
    } else if (key == "drop_prob") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.drop_prob = d;
    } else if (key == "dup_prob") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.dup_prob = d;
    } else if (key == "fault_jitter_ms") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.jitter = sim::from_seconds(d / 1000.0);
    } else if (key == "pause_rate_per_min") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.pause_rate_per_min = d;
    } else if (key == "pause_mean_s") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.pause_mean_s = d;
    } else if (key == "crash_rate_per_min") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.crash_rate_per_min = d;
    } else if (key == "crash_mean_s") {
      if (!parse_double(val, d)) return fail("number");
      config.fault.crash_mean_s = d;
    } else if (key == "net_partition") {
      // One scheduled partition per line: "<cell>[,<cell>...] @ <s>..<s>",
      // e.g. "net_partition = 0,1,8 @ 300..420". Repeatable.
      net::PartitionSpec spec;
      if (!parse_partition_spec(val, spec)) {
        return fail("cells @ start_s..end_s, e.g. 0,1,8 @ 300..420");
      }
      config.fault.partitions.push_back(std::move(spec));
    } else if (key == "timeout_ms") {
      if (!parse_double(val, d)) return fail("number");
      config.request_timeout = sim::from_seconds(d / 1000.0);
    } else if (key == "shards") {
      if (!parse_int(val, i)) return fail("int");
      config.shards = static_cast<int>(i);
    } else if (key == "threads") {
      if (!parse_int(val, i)) return fail("int");
      config.threads = static_cast<int>(i);
    } else if (key == "partition") {
      if (val == "striped") {
        config.partition = cell::Partition::kStriped;
      } else if (val == "blocks") {
        config.partition = cell::Partition::kBlocks;
      } else {
        return fail("striped|blocks");
      }
    } else if (key == "pin") {
      if (!parse_bool(val, b)) return fail("bool");
      config.pin = b;
    } else {
      error = "line " + std::to_string(lineno) + ": unknown key '" + key + "'";
      return false;
    }
  }
  return true;
}

bool load_scenario_file(const std::string& path, ScenarioConfig& config,
                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return apply_scenario_text(buf.str(), config, error);
}

std::string scenario_to_text(const ScenarioConfig& c) {
  std::ostringstream os;
  os << "rows = " << c.rows << "\n";
  os << "cols = " << c.cols << "\n";
  os << "radius = " << c.interference_radius << "\n";
  os << "channels = " << c.n_channels << "\n";
  os << "cluster = " << c.cluster << "\n";
  os << "torus = " << (c.wrap == cell::Wrap::kToroidal ? "true" : "false") << "\n";
  os << "greedy_plan = " << (c.greedy_plan ? "true" : "false") << "\n";
  os << "holding_s = " << c.mean_holding_s << "\n";
  os << "latency_ms = " << sim::to_milliseconds(c.latency) << "\n";
  os << "jitter_ms = " << sim::to_milliseconds(c.latency_jitter) << "\n";
  os << "dwell_s = " << c.mean_dwell_s << "\n";
  os << "duration_min = " << sim::to_seconds(c.duration) / 60.0 << "\n";
  os << "warmup_min = " << sim::to_seconds(c.warmup) / 60.0 << "\n";
  os << "seed = " << c.seed << "\n";
  os << "max_update_attempts = " << c.max_update_attempts << "\n";
  os << "update_pick = " << proto::channel_pick_name(c.update_pick) << "\n";
  os << "policy = " << c.policy.to_string() << "\n";
  os << "theta_low = " << c.adaptive.theta_low << "\n";
  os << "theta_high = " << c.adaptive.theta_high << "\n";
  os << "alpha = " << c.adaptive.alpha << "\n";
  os << "window_s = " << sim::to_seconds(c.adaptive.window) << "\n";
  os << "strict_fig4 = " << (c.adaptive.strict_fig4 ? "true" : "false") << "\n";
  os << "best_heuristic = " << (c.adaptive.use_best_heuristic ? "true" : "false")
     << "\n";
  os << "repack = " << (c.adaptive.repack ? "true" : "false") << "\n";
  os << "drop_prob = " << c.fault.drop_prob << "\n";
  os << "dup_prob = " << c.fault.dup_prob << "\n";
  os << "fault_jitter_ms = " << sim::to_milliseconds(c.fault.jitter) << "\n";
  os << "pause_rate_per_min = " << c.fault.pause_rate_per_min << "\n";
  os << "pause_mean_s = " << c.fault.pause_mean_s << "\n";
  os << "crash_rate_per_min = " << c.fault.crash_rate_per_min << "\n";
  os << "crash_mean_s = " << c.fault.crash_mean_s << "\n";
  for (const net::PartitionSpec& p : c.fault.partitions) {
    os << "net_partition = ";
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
      os << (i == 0 ? "" : ",") << p.cells[i];
    }
    os << " @ " << sim::to_seconds(p.start) << ".." << sim::to_seconds(p.end)
       << "\n";
  }
  os << "timeout_ms = " << sim::to_milliseconds(c.request_timeout) << "\n";
  os << "shards = " << c.shards << "\n";
  os << "threads = " << c.threads << "\n";
  os << "partition = "
     << (c.partition == cell::Partition::kStriped ? "striped" : "blocks")
     << "\n";
  os << "pin = " << (c.pin ? "true" : "false") << "\n";
  return os.str();
}

}  // namespace dca::runner
