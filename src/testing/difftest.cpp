#include "testing/difftest.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <stdexcept>

#include "apps/harness.hpp"
#include "bpf/codegen.hpp"
#include "bpf/disasm.hpp"
#include "bpf/eval.hpp"
#include "bpf/parser.hpp"
#include "bpf/predecode.hpp"
#include "bpf/vm.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "nic/device.hpp"
#include "pcapcompat/pcap_compat.hpp"
#include "sim/bus.hpp"
#include "sim/core.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::testing {

namespace {

// Shared value pools: the frame generator draws addresses/ports/VIDs
// from the same small sets the filter generator does, so generated
// (filter, frame) pairs land on both sides of every predicate instead
// of being almost-always-false.
constexpr std::uint32_t kAddrPool[] = {
    0x83E10204,  // 131.225.2.4 (the paper's border subnet)
    0x83E10263,  // 131.225.2.99
    0x83E10901,  // 131.225.9.1
    0x0A000001,  // 10.0.0.1
    0x0A000102,  // 10.0.1.2
    0xC0A80001,  // 192.168.0.1
};
constexpr std::uint16_t kPortPool[] = {22, 53, 80, 123, 443, 5001, 8080};
constexpr std::uint16_t kVidPool[] = {1, 7, 42, 100, 4095};

constexpr std::uint32_t kAcceptLen = 65535;

[[nodiscard]] std::uint32_t pick_addr(Xoshiro256& rng) {
  if (rng.next_bool(0.8)) {
    return kAddrPool[rng.next_below(std::size(kAddrPool))];
  }
  return static_cast<std::uint32_t>(rng.next());
}

[[nodiscard]] std::uint16_t pick_port(Xoshiro256& rng) {
  if (rng.next_bool(0.8)) {
    return kPortPool[rng.next_below(std::size(kPortPool))];
  }
  return static_cast<std::uint16_t>(rng.next_below(65536));
}

[[nodiscard]] std::uint16_t pick_vid(Xoshiro256& rng) {
  if (rng.next_bool(0.8)) {
    return kVidPool[rng.next_below(std::size(kVidPool))];
  }
  return static_cast<std::uint16_t>(rng.next_below(4096));
}

[[nodiscard]] net::IpProto pick_proto(Xoshiro256& rng) {
  switch (rng.next_below(5)) {
    case 0: return net::IpProto::kIcmp;
    case 1:
    case 2: return net::IpProto::kTcp;
    default: return net::IpProto::kUdp;
  }
}

[[nodiscard]] std::span<const std::byte> as_span(
    const std::vector<std::byte>& bytes) {
  return {bytes.data(), bytes.size()};
}

}  // namespace

GeneratedFrame FrameGenerator::next() {
  GeneratedFrame out;
  const auto kind = rng_.next_below(12);

  if (kind == 0) {
    // Unstructured garbage, from the empty frame up.
    const std::size_t len = rng_.next_below(81);
    out.bytes.resize(len);
    for (auto& b : out.bytes) {
      b = static_cast<std::byte>(rng_.next() & 0xFF);
    }
    out.wire_len = static_cast<std::uint32_t>(
        len + (rng_.next_bool(0.5) ? rng_.next_below(64) : 0));
    std::ostringstream desc;
    desc << "garbage cap=" << len << " wire=" << out.wire_len;
    out.description = desc.str();
    return out;
  }

  std::array<std::byte, 512> buf{};
  std::size_t wire = 0;
  std::ostringstream desc;

  if (kind == 1) {
    // IPv6.
    net::Ipv6Addr src{}, dst{};
    for (auto& o : src.octets) o = static_cast<std::uint8_t>(rng_.next());
    for (auto& o : dst.octets) o = static_cast<std::uint8_t>(rng_.next());
    const auto proto =
        rng_.next_bool(0.5) ? net::IpProto::kUdp : net::IpProto::kTcp;
    wire = net::kEthernetHeaderLen + net::kIpv6HeaderLen +
           net::kTcpMinHeaderLen + rng_.next_below(80);
    net::build_ipv6_frame(buf, src, dst, proto, pick_port(rng_),
                          pick_port(rng_), wire);
    desc << "ipv6/" << (proto == net::IpProto::kUdp ? "udp" : "tcp");
  } else {
    net::Ipv4FrameSpec spec;
    spec.flow.src_ip = net::Ipv4Addr{pick_addr(rng_)};
    spec.flow.dst_ip = net::Ipv4Addr{pick_addr(rng_)};
    spec.flow.proto = pick_proto(rng_);
    spec.flow.src_port = pick_port(rng_);
    spec.flow.dst_port = pick_port(rng_);
    spec.ip_id = static_cast<std::uint16_t>(rng_.next());
    desc << "ipv4/"
         << (spec.flow.proto == net::IpProto::kUdp   ? "udp"
             : spec.flow.proto == net::IpProto::kTcp ? "tcp"
                                                     : "icmp");

    // 802.1Q stack: none (kind 2..5), one tag (6..8), two tags (9).
    if (kind >= 6 && kind <= 8) {
      spec.vlan_vids = {pick_vid(rng_)};
      desc << " vlan=" << spec.vlan_vids[0];
    } else if (kind == 9) {
      spec.vlan_vids = {pick_vid(rng_), pick_vid(rng_)};
      desc << " qinq=" << spec.vlan_vids[0] << "/" << spec.vlan_vids[1];
    }
    // IP options (kind 10) and fragments (kind 11) also mix with the
    // plain shapes at low probability so they occur behind VLAN too.
    if (kind == 10 || rng_.next_bool(0.1)) {
      spec.ihl = static_cast<std::uint8_t>(rng_.next_in(6, 15));
      desc << " ihl=" << static_cast<unsigned>(spec.ihl);
    }
    if (kind == 11 || rng_.next_bool(0.1)) {
      spec.flags_fragment =
          static_cast<std::uint16_t>(rng_.next_in(1, 0x1FFF) |
                                     (rng_.next_bool(0.5) ? 0x2000 : 0));
      desc << " frag";
    }

    const std::size_t minimum =
        net::kEthernetHeaderLen + net::kVlanTagLen * spec.vlan_vids.size() +
        static_cast<std::size_t>(spec.ihl) * 4 +
        ((spec.flags_fragment & 0x1FFF) != 0 ? 8 : net::kTcpMinHeaderLen);
    spec.wire_len = minimum + rng_.next_below(120);
    wire = net::build_ipv4_frame(buf, spec);
  }

  // Truncated capture: caplen < wire_len, cutting anywhere including
  // mid-header (the difftest's whole point).
  std::size_t caplen = wire;
  if (rng_.next_bool(0.35)) {
    caplen = rng_.next_below(wire + 1);
  } else if (rng_.next_bool(0.3)) {
    caplen = std::min<std::size_t>(wire, net::WirePacket::kSnapBytes);
  }
  out.bytes.assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(caplen));
  out.wire_len = static_cast<std::uint32_t>(wire);
  desc << " wire=" << wire << " cap=" << caplen;
  out.description = desc.str();
  return out;
}

bpf::ExprPtr FilterGenerator::gen_primitive() {
  using bpf::Direction;
  using bpf::PrimitiveKind;
  bpf::Primitive p;
  const auto dir = [&] {
    switch (rng_.next_below(3)) {
      case 0: return Direction::kSrc;
      case 1: return Direction::kDst;
      default: return Direction::kEither;
    }
  };
  switch (rng_.next_below(12)) {
    case 0: p.kind = PrimitiveKind::kProtoIp; break;
    case 1: p.kind = PrimitiveKind::kProtoIp6; break;
    case 2: p.kind = PrimitiveKind::kProtoTcp; break;
    case 3: p.kind = PrimitiveKind::kProtoUdp; break;
    case 4: p.kind = PrimitiveKind::kProtoIcmp; break;
    case 5:
      p.kind = PrimitiveKind::kVlan;
      if (rng_.next_bool(0.6)) {
        p.vlan_id = pick_vid(rng_);
        p.has_vlan_id = true;
      }
      break;
    case 6:
      p.kind = PrimitiveKind::kHost;
      p.dir = dir();
      p.addr = net::Ipv4Addr{pick_addr(rng_)};
      break;
    case 7: {
      p.kind = PrimitiveKind::kNet;
      p.dir = dir();
      p.addr = net::Ipv4Addr{pick_addr(rng_)};
      constexpr unsigned kPrefixes[] = {8, 16, 24, 28, 32};
      p.prefix_len = kPrefixes[rng_.next_below(std::size(kPrefixes))];
      break;
    }
    case 8:
      p.kind = PrimitiveKind::kPort;
      p.dir = dir();
      p.port = pick_port(rng_);
      break;
    case 9: {
      p.kind = PrimitiveKind::kPortRange;
      p.dir = dir();
      const auto a = pick_port(rng_);
      const auto b = pick_port(rng_);
      p.port = std::min(a, b);
      p.port_hi = std::max(a, b);
      break;
    }
    case 10:
      p.kind = PrimitiveKind::kLenLe;
      p.length = static_cast<std::uint32_t>(rng_.next_in(40, 220));
      break;
    default:
      p.kind = PrimitiveKind::kLenGe;
      p.length = static_cast<std::uint32_t>(rng_.next_in(40, 220));
      break;
  }
  return bpf::Expr::make_primitive(p);
}

bpf::ExprPtr FilterGenerator::gen(unsigned depth) {
  const auto r = rng_.next_below(100);
  if (depth >= 4 || r < 50) return gen_primitive();
  if (r < 72) return bpf::Expr::make_and(gen(depth + 1), gen(depth + 1));
  if (r < 94) return bpf::Expr::make_or(gen(depth + 1), gen(depth + 1));
  return bpf::Expr::make_not(gen(depth + 1));
}

bpf::ExprPtr FilterGenerator::next_expr() { return gen(0); }

std::string FilterGenerator::next() { return bpf::to_string(*next_expr()); }

bpf::Program generate_valid_program(Xoshiro256& rng) {
  using namespace bpf;
  const std::size_t n = 2 + rng.next_below(31);
  Program prog;
  const auto pick_size = [&]() -> std::uint16_t {
    switch (rng.next_below(3)) {
      case 0: return kSizeW;
      case 1: return kSizeH;
      default: return kSizeB;
    }
  };
  for (std::size_t pc = 0; pc + 1 < n; ++pc) {
    // Conditional-jump offsets must stay inside the program; the last
    // instruction is always the closing RET appended below.
    const auto max_off =
        static_cast<std::uint32_t>(std::min<std::size_t>(n - 2 - pc, 255));
    switch (rng.next_below(9)) {
      case 0:  // packet load
        prog.push_back(stmt(
            kClassLd | pick_size() | (rng.next_bool(0.5) ? kModeAbs : kModeInd),
            static_cast<std::uint32_t>(rng.next_below(96))));
        break;
      case 1:  // register load (W only)
        switch (rng.next_below(3)) {
          case 0:
            prog.push_back(stmt(kClassLd | kSizeW | kModeImm,
                                static_cast<std::uint32_t>(rng.next())));
            break;
          case 1:
            prog.push_back(stmt(kClassLd | kSizeW | kModeLen, 0));
            break;
          default:
            prog.push_back(
                stmt(kClassLd | kSizeW | kModeMem,
                     static_cast<std::uint32_t>(rng.next_below(kMemSlots))));
            break;
        }
        break;
      case 2:  // LDX
        switch (rng.next_below(4)) {
          case 0:
            prog.push_back(stmt(kClassLdx | kSizeW | kModeImm,
                                static_cast<std::uint32_t>(rng.next_below(256))));
            break;
          case 1:
            prog.push_back(stmt(kClassLdx | kSizeW | kModeLen, 0));
            break;
          case 2:
            prog.push_back(
                stmt(kClassLdx | kSizeW | kModeMem,
                     static_cast<std::uint32_t>(rng.next_below(kMemSlots))));
            break;
          default:  // MSH
            prog.push_back(stmt(kClassLdx | kSizeB | kModeMsh,
                                static_cast<std::uint32_t>(rng.next_below(96))));
            break;
        }
        break;
      case 3:  // scratch store
        prog.push_back(
            stmt(rng.next_bool(0.5) ? kClassSt : kClassStx,
                 static_cast<std::uint32_t>(rng.next_below(kMemSlots))));
        break;
      case 4: {  // ALU
        constexpr std::uint16_t kOps[] = {kAluAdd, kAluSub, kAluMul, kAluDiv,
                                          kAluMod, kAluAnd, kAluOr,  kAluXor,
                                          kAluLsh, kAluRsh, kAluNeg};
        const auto op = kOps[rng.next_below(std::size(kOps))];
        const std::uint16_t src = rng.next_bool(0.5) ? kSrcX : kSrcK;
        std::uint32_t k = static_cast<std::uint32_t>(rng.next_below(64));
        if ((op == kAluDiv || op == kAluMod) && src == kSrcK) {
          k = 1 + static_cast<std::uint32_t>(rng.next_below(1000));
        }
        prog.push_back(stmt(kClassAlu | op | src, k));
        break;
      }
      case 5:  // JA
        prog.push_back(stmt(kClassJmp | kJmpJa,
                            static_cast<std::uint32_t>(
                                rng.next_below(n - 1 - pc))));
        break;
      case 6: {  // conditional jump
        constexpr std::uint16_t kOps[] = {kJmpJeq, kJmpJgt, kJmpJge, kJmpJset};
        const auto op = kOps[rng.next_below(std::size(kOps))];
        const std::uint16_t src = rng.next_bool(0.5) ? kSrcX : kSrcK;
        prog.push_back(jump(
            kClassJmp | op | src, static_cast<std::uint32_t>(rng.next_below(512)),
            static_cast<std::uint8_t>(rng.next_below(max_off + 1)),
            static_cast<std::uint8_t>(rng.next_below(max_off + 1))));
        break;
      }
      case 7:  // early return
        if (rng.next_bool(0.5)) {
          prog.push_back(stmt(kClassRet | kRetK,
                              static_cast<std::uint32_t>(rng.next_below(2) *
                                                         kAcceptLen)));
        } else {
          prog.push_back(stmt(kClassRet | kRetA, 0));
        }
        break;
      default:  // MISC
        prog.push_back(
            stmt(kClassMisc | (rng.next_bool(0.5) ? kMiscTax : kMiscTxa), 0));
        break;
    }
  }
  prog.push_back(stmt(kClassRet | kRetK,
                      static_cast<std::uint32_t>(rng.next_below(2) * kAcceptLen)));
  return prog;
}

namespace {

/// Random single-character edits turning well-formed filter text into
/// near-miss garbage for the parser's ParseError-only contract.
[[nodiscard]] std::string mutate_text(std::string text, Xoshiro256& rng) {
  constexpr char kCharset[] = "()<>=-/.0123456789abcdefghijklmnopqrstuvwxyz &|!";
  const auto edits = 1 + rng.next_below(4);
  for (std::uint64_t i = 0; i < edits; ++i) {
    const auto c = kCharset[rng.next_below(sizeof(kCharset) - 1)];
    switch (text.empty() ? 0 : rng.next_below(3)) {
      case 0:  // insert
        text.insert(text.begin() +
                        static_cast<std::ptrdiff_t>(rng.next_below(text.size() + 1)),
                    c);
        break;
      case 1:  // delete
        text.erase(text.begin() +
                   static_cast<std::ptrdiff_t>(rng.next_below(text.size())));
        break;
      default:  // replace
        text[rng.next_below(text.size())] = c;
        break;
    }
  }
  return text;
}

}  // namespace

DifftestResult run_difftest(const DifftestConfig& config) {
  DifftestResult result;
  result.seed = config.seed;

  Xoshiro256 root{config.seed};
  FrameGenerator frame_gen{root.next()};
  FilterGenerator filter_gen{root.next()};
  Xoshiro256 prog_rng{root.next()};
  Xoshiro256 mut_rng{root.next()};

  const auto diverge = [&](std::string kind, std::string filter,
                           std::string frame, std::string detail) {
    result.divergences.push_back(Divergence{std::move(kind), std::move(filter),
                                            std::move(frame),
                                            std::move(detail)});
  };

  std::vector<GeneratedFrame> corpus;
  corpus.reserve(config.frames);
  for (std::uint32_t i = 0; i < config.frames; ++i) {
    corpus.push_back(frame_gen.next());
  }
  result.frames = corpus.size();

  // --- tier 1a: eval vs compiled vs round-tripped-recompiled ---
  for (std::uint32_t f = 0; f < config.filters; ++f) {
    const bpf::ExprPtr expr = filter_gen.next_expr();
    const std::string text = bpf::to_string(*expr);
    ++result.filters;

    bpf::ExprPtr reparsed;
    try {
      reparsed = bpf::parse_filter(text);
    } catch (const std::exception& e) {
      diverge("reparse", text, "", e.what());
      continue;
    }

    bpf::Program prog, prog_rt;
    try {
      prog = bpf::compile(expr.get(), kAcceptLen);
      prog_rt = bpf::compile(reparsed.get(), kAcceptLen);
    } catch (const std::invalid_argument&) {
      // The documented jump-offset-overflow rejection; deterministic,
      // so both compiles reject or neither does.
      ++result.compile_rejects;
      continue;
    } catch (const std::exception& e) {
      diverge("compile", text, "", e.what());
      continue;
    }

    if (prog != prog_rt) {
      diverge("recompile", text, "",
              "round-tripped expression compiled to a different program");
    }
    // Disassemble, then re-verify and re-run the same object: disasm
    // must not disturb or crash on anything codegen emits.
    const std::string listing = bpf::disassemble(prog);
    if (listing.empty() || listing.find('?') != std::string::npos) {
      diverge("disasm", text, "", "unknown opcode in listing:\n" + listing);
    }
    if (const auto v = bpf::verify(prog); !v.ok) {
      diverge("reverify", text, "", v.error);
      continue;
    }
    const bpf::Predecoded pre{prog};

    // Batch the whole corpus behind one run_batch() call: its accept
    // vector must agree per-frame with the scalar interpreters.
    engines::PacketBatch batch;
    std::vector<std::uint8_t> accepts;
    for (auto& g : corpus) {
      engines::CaptureView view;
      view.bytes = std::span<std::byte>(g.bytes);
      view.wire_len = g.wire_len;
      view.seq = batch.views.size();
      batch.views.push_back(view);
    }
    const std::size_t batch_matches = pre.run_batch(batch, accepts);

    std::size_t scalar_matches = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const GeneratedFrame& g = corpus[i];
      ++result.pairs;
      const bool eval_m = bpf::evaluate(expr.get(), as_span(g.bytes), g.wire_len);
      const bool vm_m = bpf::run(prog, as_span(g.bytes), g.wire_len) != 0;
      const bool rt_m = bpf::run(prog_rt, as_span(g.bytes), g.wire_len) != 0;
      const bool rerun_m = bpf::run(prog, as_span(g.bytes), g.wire_len) != 0;
      const bool pre_m = pre.run(as_span(g.bytes), g.wire_len) != 0;
      const bool batch_m = accepts[i] != 0;
      scalar_matches += vm_m;
      if (eval_m != vm_m) {
        std::ostringstream detail;
        detail << "eval=" << eval_m << " vm=" << vm_m;
        diverge("eval_vm", text, g.description, detail.str());
      }
      if (vm_m != rt_m) {
        diverge("roundtrip_run", text, g.description,
                "round-tripped program disagrees");
      }
      if (vm_m != rerun_m) {
        diverge("rerun", text, g.description, "re-run disagrees (state leak)");
      }
      if (vm_m != pre_m) {
        std::ostringstream detail;
        detail << "vm=" << vm_m << " predecoded=" << pre_m;
        diverge("predecode", text, g.description, detail.str());
      }
      if (vm_m != batch_m) {
        std::ostringstream detail;
        detail << "vm=" << vm_m << " run_batch=" << batch_m;
        diverge("run_batch", text, g.description, detail.str());
      }
    }
    if (batch_matches != scalar_matches) {
      std::ostringstream detail;
      detail << "run_batch counted " << batch_matches << " matches, scalar "
             << scalar_matches;
      diverge("run_batch_count", text, "", detail.str());
    }
  }

  // --- tier 1b: verify() acceptance implies run() never throws ---
  for (std::uint32_t i = 0; i < config.programs; ++i) {
    const bpf::Program prog = generate_valid_program(prog_rng);
    if (const auto v = bpf::verify(prog); !v.ok) {
      diverge("generator", "", "", "valid-program generator rejected: " + v.error);
      continue;
    }
    const auto& g = corpus[prog_rng.next_below(corpus.size())];
    try {
      const std::uint32_t vm_result = bpf::run(prog, as_span(g.bytes),
                                               g.wire_len);
      // A verified program must also predecode, and the pre-decoded
      // interpreter must return the identical accept value.
      const bpf::Predecoded pre{prog};
      const std::uint32_t pre_result = pre.run(as_span(g.bytes), g.wire_len);
      if (pre_result != vm_result) {
        std::ostringstream detail;
        detail << "vm=" << vm_result << " predecoded=" << pre_result;
        diverge("predecode_valid", bpf::disassemble(prog), g.description,
                detail.str());
      }
      ++result.program_runs;
    } catch (const std::exception& e) {
      diverge("vm_throw", bpf::disassemble(prog), g.description, e.what());
    }
  }

  // --- tier 1c: the parser's ParseError-only contract under mutation ---
  for (std::uint32_t i = 0; i < config.mutations; ++i) {
    const std::string text = mutate_text(filter_gen.next(), mut_rng);
    try {
      const bpf::ExprPtr expr = bpf::parse_filter(text);
      // Whatever parses must also compile (or hit the documented
      // complexity rejection) — never std::logic_error from codegen.
      if (expr != nullptr) {
        try {
          (void)bpf::compile(expr.get(), kAcceptLen);
        } catch (const std::invalid_argument&) {
          ++result.compile_rejects;
        }
      }
    } catch (const bpf::ParseError&) {
      ++result.parse_rejects;
    } catch (const std::exception& e) {
      diverge("parser_contract", text, "",
              std::string("non-ParseError escaped: ") + e.what());
    }
  }

  if (config.telemetry != nullptr) {
    auto& reg = config.telemetry->registry;
    reg.counter("difftest.filters").add(result.filters);
    reg.counter("difftest.frames").add(result.frames);
    reg.counter("difftest.pairs").add(result.pairs);
    reg.counter("difftest.program_runs").add(result.program_runs);
    reg.counter("difftest.parse_rejects").add(result.parse_rejects);
    reg.counter("difftest.compile_rejects").add(result.compile_rejects);
    reg.counter("difftest.divergences").add(result.divergences.size());
    for (const auto& d : result.divergences) {
      reg.counter("difftest.diverge." + d.kind).add(1);
    }
  }
  return result;
}

std::string DifftestSoakResult::report() const {
  std::ostringstream out;
  out << "difftest soak: " << seeds_clean << "/" << seeds_run
      << " seeds clean, " << total_pairs << " pairs, " << total_program_runs
      << " program runs, " << total_divergences << " divergences\n";
  for (const auto& f : failures) out << "  " << f << "\n";
  return out.str();
}

DifftestSoakResult run_difftest_soak(std::uint64_t first_seed,
                                     std::uint32_t count,
                                     DifftestConfig base) {
  DifftestSoakResult soak;
  for (std::uint32_t i = 0; i < count; ++i) {
    DifftestConfig config = base;
    config.seed = first_seed + i;
    const DifftestResult result = run_difftest(config);
    ++soak.seeds_run;
    soak.total_pairs += result.pairs;
    soak.total_program_runs += result.program_runs;
    soak.total_divergences += result.divergences.size();
    if (result.clean()) {
      ++soak.seeds_clean;
    } else {
      for (const auto& d : result.divergences) {
        std::ostringstream line;
        line << "seed " << config.seed << " [" << d.kind << "] filter '"
             << d.filter << "' frame '" << d.frame << "': " << d.detail;
        soak.failures.push_back(line.str());
      }
    }
  }
  return soak;
}

namespace {

/// One traffic set replayed identically through several engine
/// fabrics.  Each frame carries its index in the src-MAC bytes [6..10)
/// so handlers can identify deliveries; `oracle` is eval on the
/// delivered view (snap-length capture).  Shared plumbing of the
/// engine crosscheck and the batch-equivalence suite.
struct LabeledTraffic {
  std::string filter_text;
  bpf::Program prog;
  std::vector<GeneratedFrame> frames;
  std::set<std::uint32_t> oracle;
  std::string error;  // non-empty: the filter failed to parse/compile
};

LabeledTraffic generate_labeled_traffic(std::uint64_t seed,
                                        std::uint32_t count,
                                        std::string filter) {
  LabeledTraffic out;
  Xoshiro256 root{seed};
  const std::uint64_t filter_seed = root.next();
  const std::uint64_t frame_seed = root.next();

  if (filter.empty()) {
    FilterGenerator fg{filter_seed};
    filter = fg.next();
  }
  out.filter_text = std::move(filter);

  bpf::ExprPtr expr;
  try {
    expr = bpf::parse_filter(out.filter_text);
    out.prog = bpf::compile(expr.get(), kAcceptLen);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  FrameGenerator fg{frame_seed};
  while (out.frames.size() < count) {
    GeneratedFrame g = fg.next();
    if (g.bytes.size() < net::kEthernetHeaderLen) continue;
    const auto idx = static_cast<std::uint32_t>(out.frames.size());
    g.bytes[6] = static_cast<std::byte>(idx >> 24);
    g.bytes[7] = static_cast<std::byte>(idx >> 16);
    g.bytes[8] = static_cast<std::byte>(idx >> 8);
    g.bytes[9] = static_cast<std::byte>(idx);
    const std::size_t caplen =
        std::min<std::size_t>(g.bytes.size(), net::WirePacket::kSnapBytes);
    if (bpf::evaluate(expr.get(), as_span(g.bytes).first(caplen),
                      g.wire_len)) {
      out.oracle.insert(idx);
    }
    out.frames.push_back(std::move(g));
  }
  return out;
}

/// The five engines both engine difftests drive, with the names their
/// reports print.
struct DifftestEngine {
  const char* display;
  apps::EngineKind kind;
};
constexpr std::array<DifftestEngine, 5> kDifftestEngines{
    {{"PF_RING", apps::EngineKind::kPfRing},
     {"DNA", apps::EngineKind::kDna},
     {"NETMAP", apps::EngineKind::kNetmap},
     {"PSIOE", apps::EngineKind::kPsioe},
     {"WireCAP", apps::EngineKind::kWirecapBasic}}};

/// Small WireCAP geometry so a run cycles the pool; the other engine
/// kinds ignore these fields.
std::unique_ptr<engines::CaptureEngine> make_difftest_engine(
    apps::EngineKind kind, sim::Scheduler& scheduler,
    nic::MultiQueueNic& nic) {
  apps::EngineParams params;
  params.kind = kind;
  params.cells_per_chunk = 64;
  params.chunk_count = 40;
  return apps::make_engine(params, scheduler, nic, sim::CostModel{});
}

}  // namespace

EngineCrosscheckResult run_engine_crosscheck(
    const EngineCrosscheckConfig& config) {
  EngineCrosscheckResult result;
  LabeledTraffic labeled =
      generate_labeled_traffic(config.seed, config.frames, config.filter);
  result.filter = labeled.filter_text;
  if (!labeled.error.empty()) {
    result.problems.push_back("filter '" + labeled.filter_text +
                              "' failed to compile: " + labeled.error);
    return result;
  }
  const bpf::Program& prog = labeled.prog;
  const std::vector<GeneratedFrame>& traffic = labeled.frames;
  const std::set<std::uint32_t>& oracle = labeled.oracle;
  result.oracle_matched = oracle.size();

  const auto run_engine =
      [&](const std::string& name,
          apps::EngineKind kind) -> EngineCrosscheckResult::PerEngine {
    sim::Scheduler scheduler;
    sim::IoBus bus{scheduler};
    nic::NicConfig nic_config;
    nic_config.num_rx_queues = 1;
    nic::MultiQueueNic nic{scheduler, bus, nic_config};
    auto engine = make_difftest_engine(kind, scheduler, nic);
    sim::SimCore app_core{scheduler, 0};
    pcap::PcapHandle handle{scheduler, *engine, nic, 0, app_core};
    handle.set_filter(prog);

    for (std::size_t i = 0; i < traffic.size(); ++i) {
      nic.receive(net::WirePacket::from_bytes(
          Nanos::from_micros(2.0 * static_cast<double>(i + 1)),
          as_span(traffic[i].bytes),
          traffic[i].wire_len, i));
    }

    std::set<std::uint32_t> matched;
    const auto handler = [&](const pcap::PacketHeader&,
                             std::span<const std::byte> data) {
      if (data.size() < 10) {
        result.problems.push_back(name + ": delivered view shorter than marker");
        return;
      }
      const std::uint32_t idx = (static_cast<std::uint32_t>(data[6]) << 24) |
                                (static_cast<std::uint32_t>(data[7]) << 16) |
                                (static_cast<std::uint32_t>(data[8]) << 8) |
                                static_cast<std::uint32_t>(data[9]);
      if (!matched.insert(idx).second) {
        result.problems.push_back(name + ": duplicate delivery of frame " +
                                  std::to_string(idx));
      }
    };
    // Drain fully: captures free descriptors that admit more DMA, and
    // engines charge per-packet delays, so keep advancing virtual time
    // until two consecutive rounds deliver nothing.
    int idle_rounds = 0;
    while (idle_rounds < 2) {
      scheduler.run_until(scheduler.now() + Nanos::from_millis(5));
      idle_rounds = handle.dispatch(0, handler) > 0 ? 0 : idle_rounds + 1;
    }

    EngineCrosscheckResult::PerEngine per;
    per.name = name;
    per.matched = matched.size();
    const auto stats = handle.stats();
    per.recv = stats.ps_recv;
    per.drop = stats.ps_drop;
    per.ifdrop = stats.ps_ifdrop;
    if (per.drop != 0 || per.ifdrop != 0) {
      result.problems.push_back(name + ": dropped packets (drop=" +
                                std::to_string(per.drop) + " ifdrop=" +
                                std::to_string(per.ifdrop) + ")");
    }
    if (per.recv != traffic.size()) {
      result.problems.push_back(name + ": received " +
                                std::to_string(per.recv) + " of " +
                                std::to_string(traffic.size()));
    }
    if (matched != oracle) {
      std::size_t missing = 0, extra = 0;
      for (const auto idx : oracle) missing += matched.count(idx) == 0;
      for (const auto idx : matched) extra += oracle.count(idx) == 0;
      result.problems.push_back(
          name + ": match set diverges from oracle (missing=" +
          std::to_string(missing) + " extra=" + std::to_string(extra) + ")");
    }
    return per;
  };

  for (const DifftestEngine& entry : kDifftestEngines) {
    result.engines.push_back(run_engine(entry.display, entry.kind));
  }

  // The per-engine sets were each compared to the oracle; equal counts
  // across engines then certify identical sets.
  for (const auto& per : result.engines) {
    if (per.matched != result.oracle_matched &&
        result.problems.empty()) {
      result.problems.push_back(per.name + ": matched " +
                                std::to_string(per.matched) + " vs oracle " +
                                std::to_string(result.oracle_matched));
    }
  }

  if (config.telemetry != nullptr) {
    auto& reg = config.telemetry->registry;
    reg.counter("difftest.engine.frames")
        .add(static_cast<std::uint64_t>(traffic.size()) *
             result.engines.size());
    reg.counter("difftest.engine.mismatches").add(result.problems.size());
  }
  return result;
}

BatchEquivalenceResult run_batch_equivalence(
    const BatchEquivalenceConfig& config) {
  BatchEquivalenceResult result;
  LabeledTraffic labeled =
      generate_labeled_traffic(config.seed, config.frames, config.filter);
  result.filter = labeled.filter_text;
  if (!labeled.error.empty()) {
    result.problems.push_back("filter '" + labeled.filter_text +
                              "' failed to compile: " + labeled.error);
    return result;
  }
  result.oracle_matched = labeled.oracle.size();

  const bpf::Predecoded pre{labeled.prog};
  const std::size_t max_batch = std::max<std::uint32_t>(1, config.max_batch);

  // Everything the comparison needs about one delivery, copied out at
  // read time (engine-buffered views go stale once released).
  struct Delivery {
    std::uint64_t seq = 0;
    std::uint32_t wire_len = 0;
    std::vector<std::byte> bytes;
    bool matched = false;
  };
  struct PathOutcome {
    std::vector<Delivery> deliveries;
    std::uint64_t batches = 0;
  };

  Xoshiro256 adversity{config.seed ^ 0x9e3779b97f4a7c15ULL};

  const auto run_path = [&](apps::EngineKind kind,
                            bool batched) -> PathOutcome {
    PathOutcome out;
    sim::Scheduler scheduler;
    sim::IoBus bus{scheduler};
    nic::NicConfig nic_config;
    nic_config.num_rx_queues = 1;
    nic::MultiQueueNic nic{scheduler, bus, nic_config};
    auto engine = make_difftest_engine(kind, scheduler, nic);
    sim::SimCore app_core{scheduler, 0};
    engine->open(0, app_core);

    for (std::size_t i = 0; i < labeled.frames.size(); ++i) {
      nic.receive(net::WirePacket::from_bytes(
          Nanos::from_micros(2.0 * static_cast<double>(i + 1)),
          as_span(labeled.frames[i].bytes), labeled.frames[i].wire_len, i));
    }

    const auto record = [&](const engines::CaptureView& view, bool matched) {
      Delivery d;
      d.seq = view.seq;
      d.wire_len = view.wire_len;
      d.bytes.assign(view.bytes.begin(), view.bytes.end());
      d.matched = matched;
      out.deliveries.push_back(std::move(d));
    };

    // Adversarial mode parks completed batches here and releases them
    // LIFO — deferred, out-of-order recycling.  The bytes were copied
    // out above, so engines whose views go stale on the next pull
    // (PSIOE's staging arena) stay comparable.
    std::vector<engines::PacketBatch> held;
    const auto release_held = [&] {
      while (!held.empty()) {
        engine->done_batch(0, held.back());
        held.pop_back();
      }
    };

    engines::PacketBatch batch;
    std::vector<std::uint8_t> accepts;
    int idle_rounds = 0;
    while (idle_rounds < 2) {
      scheduler.run_until(scheduler.now() + Nanos::from_millis(5));
      std::size_t drained = 0;
      if (batched) {
        for (;;) {
          std::size_t limit = max_batch;
          if (config.adversarial) {
            limit = 1 + adversity.next_below(max_batch);
          }
          const std::size_t n = engine->try_next_batch(0, limit, batch);
          if (n == 0) break;
          ++out.batches;
          drained += n;
          (void)pre.run_batch(batch, accepts);
          for (std::size_t i = 0; i < batch.views.size(); ++i) {
            record(batch.views[i], accepts[i] != 0);
          }
          if (config.adversarial && held.size() < 2 &&
              adversity.next_below(2) == 0) {
            held.push_back(std::move(batch));
            batch = engines::PacketBatch{};
          } else {
            engine->done_batch(0, batch);
            release_held();
          }
        }
        release_held();
      } else {
        while (const auto view = engine->try_next(0)) {
          ++drained;
          record(*view, pre.run(view->bytes, view->wire_len) != 0);
          engine->done(0, *view);
        }
      }
      idle_rounds = drained > 0 ? 0 : idle_rounds + 1;
    }
    engine->close(0);
    return out;
  };

  for (const DifftestEngine& entry : kDifftestEngines) {
    const PathOutcome scalar = run_path(entry.kind, /*batched=*/false);
    const PathOutcome batched = run_path(entry.kind, /*batched=*/true);

    BatchEquivalenceResult::PerEngine per;
    per.name = entry.display;
    per.packets = batched.deliveries.size();
    per.batches = batched.batches;

    if (scalar.deliveries.size() != labeled.frames.size()) {
      result.problems.push_back(
          per.name + ": per-packet path delivered " +
          std::to_string(scalar.deliveries.size()) + " of " +
          std::to_string(labeled.frames.size()));
    }
    if (batched.deliveries.size() != scalar.deliveries.size()) {
      result.problems.push_back(
          per.name + ": batched path delivered " +
          std::to_string(batched.deliveries.size()) + " vs per-packet " +
          std::to_string(scalar.deliveries.size()));
    }
    const std::size_t common =
        std::min(scalar.deliveries.size(), batched.deliveries.size());
    for (std::size_t i = 0; i < common; ++i) {
      const Delivery& a = scalar.deliveries[i];
      const Delivery& b = batched.deliveries[i];
      if (a.seq != b.seq) {
        result.problems.push_back(per.name + ": delivery " +
                                  std::to_string(i) + " seq " +
                                  std::to_string(a.seq) + " vs " +
                                  std::to_string(b.seq));
        break;  // misalignment cascades; report the first
      }
      if (a.wire_len != b.wire_len || a.bytes != b.bytes) {
        result.problems.push_back(per.name + ": delivery " +
                                  std::to_string(i) + " (seq " +
                                  std::to_string(a.seq) +
                                  ") differs between paths");
      }
      if (a.matched != b.matched) {
        result.problems.push_back(per.name + ": seq " +
                                  std::to_string(a.seq) +
                                  " filter verdict differs (per-packet=" +
                                  std::to_string(a.matched) + " batched=" +
                                  std::to_string(b.matched) + ")");
      }
    }

    std::set<std::uint32_t> matched;
    for (const Delivery& d : batched.deliveries) {
      if (d.matched) matched.insert(static_cast<std::uint32_t>(d.seq));
    }
    per.matched = matched.size();
    if (matched != labeled.oracle) {
      std::size_t missing = 0, extra = 0;
      for (const auto idx : labeled.oracle) missing += matched.count(idx) == 0;
      for (const auto idx : matched) extra += labeled.oracle.count(idx) == 0;
      result.problems.push_back(
          per.name + ": batched match set diverges from oracle (missing=" +
          std::to_string(missing) + " extra=" + std::to_string(extra) + ")");
    }
    result.engines.push_back(per);
  }
  return result;
}

BatchEquivalenceSoakResult run_batch_equivalence_soak(
    std::uint64_t first_seed, std::uint32_t count,
    BatchEquivalenceConfig base) {
  BatchEquivalenceSoakResult soak;
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchEquivalenceConfig config = base;
    config.seed = first_seed + i;
    const BatchEquivalenceResult result = run_batch_equivalence(config);
    ++soak.seeds_run;
    for (const auto& per : result.engines) soak.total_packets += per.packets;
    soak.total_problems += result.problems.size();
    if (result.clean()) {
      ++soak.seeds_clean;
    } else {
      for (const auto& p : result.problems) {
        soak.failures.push_back("seed " + std::to_string(config.seed) + ": " +
                                p);
      }
    }
  }
  return soak;
}

}  // namespace wirecap::testing
