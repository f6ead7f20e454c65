#include "specbench/corpora.h"

#include <cstdio>
#include <fstream>

#include "specbench/workloads.h"
#include "src/itermine/bitmap_index.h"
#include "src/trace/binary_format.h"
#include "src/trace/trace_io.h"

namespace specbench {

using specmine::QuestParams;
using specmine::Result;
using specmine::SequenceDatabase;
using specmine::Status;

QuestParams DenseParams(uint64_t seed) {
  QuestParams p;
  p.d_sequences_thousands = 0.25;
  p.c_avg_sequence_length = 25.0;
  p.n_events_thousands = 0.3;
  p.s_avg_pattern_length = 6.0;
  p.num_seed_patterns = 3000;
  p.seed = seed;
  return p;
}

QuestParams ModuleParams(uint64_t seed, size_t module) {
  QuestParams p;
  p.d_sequences_thousands = 0.04;
  p.c_avg_sequence_length = 20.0;
  p.n_events_thousands = 0.05;
  p.s_avg_pattern_length = 6.0;
  p.num_seed_patterns = 40;
  p.seed = seed * 7919 + module;
  return p;
}

QuestParams SparseParams(uint64_t seed) {
  QuestParams p;
  p.d_sequences_thousands = 0.5;
  p.c_avg_sequence_length = 12.0;
  p.n_events_thousands = 3.0;
  p.s_avg_pattern_length = 4.0;
  p.num_seed_patterns = 2000;
  p.seed = seed;
  return p;
}

std::string DenseFile(const std::string& dir, size_t corpus) {
  return dir + "/dense." + std::to_string(corpus) + ".txt";
}

std::string SparseFile(const std::string& dir, size_t corpus) {
  return dir + "/sparse." + std::to_string(corpus) + ".txt";
}

std::string ModuleFile(const std::string& dir, size_t module) {
  char name[32];
  std::snprintf(name, sizeof(name), "module.%04zu.txt", module);
  return dir + "/" + name;
}

const char* DenseTaskName(DenseTask task) {
  switch (task) {
    case DenseTask::kFull:
      return "full";
    case DenseTask::kClosed:
      return "closed";
    case DenseTask::kGenerators:
      return "generators";
    case DenseTask::kRules:
      return "rules";
    case DenseTask::kBackwardRules:
      return "backward-rules";
  }
  return "?";
}

Result<uint64_t> MineDense(const specmine::Engine& engine, DenseTask task,
                           specmine::BackendChoice backend,
                           specmine::RunReport* report, size_t* count) {
  const specmine::EventDictionary& dict = engine.dictionary();
  Result<specmine::RunReport> run = specmine::RunReport();
  if (task == DenseTask::kRules || task == DenseTask::kBackwardRules) {
    specmine::RulesTask rules;
    rules.backward = task == DenseTask::kBackwardRules;
    rules.options.min_s_support = engine.AbsoluteSupport(
        rules.backward ? kDenseBackwardMinSsup : kDenseRulesMinSsup);
    rules.options.min_confidence =
        rules.backward ? kDenseBackwardMinConf : kDenseRulesMinConf;
    rules.options.num_threads = 1;
    rules.options.backend = backend;
    DigestRuleSink sink(dict);
    run = engine.Mine(rules, sink);
    if (!run.ok()) return run.status();
    *report = *run;
    *count = sink.count();
    return sink.digest();
  }
  DigestPatternSink sink(dict);
  if (task == DenseTask::kFull) {
    specmine::FullPatternsTask full;
    full.options.min_support = engine.AbsoluteSupport(kDenseFullMinSup);
    full.options.num_threads = 1;
    full.options.backend = backend;
    run = engine.Mine(full, sink);
  } else if (task == DenseTask::kClosed) {
    specmine::ClosedTask closed;
    closed.options.min_support = engine.AbsoluteSupport(kDenseClosedMinSup);
    closed.options.num_threads = 1;
    closed.options.backend = backend;
    run = engine.Mine(closed, sink);
  } else {
    specmine::GeneratorsTask generators;
    generators.options.min_support =
        engine.AbsoluteSupport(kDenseGeneratorsMinSup);
    generators.options.num_threads = 1;
    generators.options.backend = backend;
    run = engine.Mine(generators, sink);
  }
  if (!run.ok()) return run.status();
  *report = *run;
  *count = sink.count();
  return sink.digest();
}

CorpusShape ShapeOf(const SequenceDatabase& db, std::string generator) {
  CorpusShape shape;
  shape.generator = std::move(generator);
  shape.sequences = db.size();
  shape.events = db.TotalEvents();
  shape.distinct_events = db.dictionary().size();
  shape.mean_occurrences =
      shape.distinct_events == 0
          ? 0.0
          : static_cast<double>(shape.events) /
                static_cast<double>(shape.distinct_events);
  shape.auto_backend =
      specmine::BackendKindName(specmine::ChooseBackendKind(db));
  return shape;
}

Status PackSmdb(const std::string& traces, const std::string& smdb_path) {
  Result<SequenceDatabase> db = specmine::ReadTextTraceFile(traces);
  if (!db.ok()) return db.status();
  return specmine::WriteBinaryDatabaseFile(*db, smdb_path);
}

namespace {

void PrintShape(const char* what, const CorpusShape& shape) {
  std::fprintf(stderr,
               "%s corpus %s: %zu sequences, %zu events, %zu distinct, "
               "%.2f occurrences/event, auto backend %s\n",
               what, shape.generator.c_str(), shape.sequences, shape.events,
               shape.distinct_events, shape.mean_occurrences,
               shape.auto_backend.c_str());
}

Status WriteQuest(const QuestParams& params, const std::string& path,
                  const char* what) {
  Result<SequenceDatabase> db = specmine::GenerateQuest(params);
  if (!db.ok()) return db.status();
  PrintShape(what, ShapeOf(*db, params.Label()));
  return specmine::WriteTextTraceFile(*db, path);
}

// The csr reference for batch-dense: every (corpus, task) emission-order
// digest, computed from the trace files exactly as the timed run reads them.
Status WriteDenseReference(const std::string& dir) {
  std::ofstream out(dir + "/reference.txt");
  for (size_t k = 0; k < kDenseCorpora; ++k) {
    Result<SequenceDatabase> db = specmine::ReadTextTraceFile(DenseFile(dir, k));
    if (!db.ok()) return db.status();
    Result<specmine::Engine> engine =
        specmine::Engine::Create(db.TakeValueOrDie());
    if (!engine.ok()) return engine.status();
    for (DenseTask task : kDenseCycle) {
      specmine::RunReport report;
      size_t count = 0;
      Result<uint64_t> digest = MineDense(
          *engine, task, specmine::BackendChoice::kCsr, &report, &count);
      if (!digest.ok()) return digest.status();
      out << k << ' ' << DenseTaskName(task) << ' ' << *digest << ' ' << count
          << '\n';
      std::fprintf(stderr, "reference corpus %zu %s: %zu results\n", k,
                   DenseTaskName(task), count);
    }
  }
  return out ? Status::OK()
             : Status::IOError("cannot write " + dir + "/reference.txt");
}

}  // namespace

Status Generate(const std::string& workload, uint64_t seed,
                const std::string& dir) {
  if (workload == "batch-dense") {
    for (size_t k = 0; k < kDenseCorpora; ++k) {
      Status status = WriteQuest(DenseParams(seed * kDenseCorpora + k),
                                 DenseFile(dir, k), "dense");
      if (!status.ok()) return status;
    }
    return WriteDenseReference(dir);
  }
  if (workload == "server-sparse") {
    for (size_t k = 0; k < kSparseCorpora; ++k) {
      Status status = WriteQuest(SparseParams(seed * kSparseCorpora + k),
                                 SparseFile(dir, k), "sparse");
      if (!status.ok()) return status;
    }
    return Status::OK();
  }
  if (workload == "append-remine") {
    for (size_t m = 0; m < kBaseModules + kAppendModules; ++m) {
      const QuestParams params = ModuleParams(seed, m);
      Result<SequenceDatabase> module = specmine::GenerateQuest(params);
      if (!module.ok()) return module.status();
      std::string prefix = "m";  // Built stepwise: GCC 12 -Wrestrict false
      prefix += std::to_string(m);  // positive on "m" + to_string(m).
      prefix += '.';
      specmine::SequenceDatabaseBuilder builder;
      std::vector<std::string> names;
      for (specmine::EventSpan seq : *module) {
        names.clear();
        for (specmine::EventId ev : seq) {
          names.push_back(prefix + module->dictionary().Name(ev));
        }
        builder.AddTrace(names);
      }
      Status status =
          specmine::WriteTextTraceFile(builder.Build(), ModuleFile(dir, m));
      if (!status.ok()) return status;
    }
    std::fprintf(stderr, "modular corpus: %zu base + %zu appended modules\n",
                 kBaseModules, kAppendModules);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown workload '" + workload + "'");
}

}  // namespace specbench
