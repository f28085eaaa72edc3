// Command dio-bench regenerates every table and figure of the paper's
// evaluation (§4) plus the extension ablations:
//
//	dio-bench -experiment fig1      Figure 1  (ChatGPT vs DIO copilot)
//	dio-bench -experiment table3a   Table 3a  (end-to-end EX comparison)
//	dio-bench -experiment table3b   Table 3b  (foundation-model ablation)
//	dio-bench -experiment cost      §4.2.5    (inference cost)
//	dio-bench -experiment setup     §4        (setup checks: catalog, config)
//	dio-bench -experiment ablations extensions (context-size, few-shot,
//	                                retrieval index, feedback learning curve)
//	dio-bench -experiment all       everything above
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"dio/internal/baselines"
	"dio/internal/benchmark"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "dio-bench")

func fatal(msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// experiments is what -experiment accepts, in the order "all" runs them.
var experiments = []struct {
	name string
	run  func(*env1) error
}{
	{"setup", (*env1).setup},
	{"fig1", (*env1).fig1},
	{"table3a", (*env1).table3a},
	{"table3b", (*env1).table3b},
	{"cost", (*env1).cost},
	{"ablations", (*env1).ablations},
}

// checkExperiment rejects a name -experiment does not know, so a script
// that still asks for a removed experiment fails instead of printing
// nothing and exiting 0.
func checkExperiment(name string) error {
	valid := []string{"all"}
	for _, e := range experiments {
		valid = append(valid, e.name)
	}
	if slices.Contains(valid, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q; valid: %s", name, strings.Join(valid, ", "))
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: setup, fig1, table3a, table3b, cost, ablations, all")
	size := flag.Int("questions", benchmark.DefaultSize, "benchmark size")
	seed := flag.Int64("seed", 7, "benchmark generation seed")
	verbose := flag.Bool("v", false, "print per-task breakdowns")
	outCSV := flag.String("csv", "", "write per-question results of table3a/table3b to this CSV file")
	flag.Parse()
	if err := checkExperiment(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "dio-bench:", err)
		os.Exit(2)
	}

	env, err := newEnv(*size, *seed)
	if err != nil {
		fatal("environment", err)
	}
	env.verbose = *verbose
	env.outCSV = *outCSV

	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		fmt.Printf("\n================ %s ================\n", e.name)
		if err := e.run(env); err != nil {
			fatal(e.name, err)
		}
	}
}

// env1 carries the shared experiment environment: the catalog, the
// populated TSDB and the benchmark dataset.
type env1 struct {
	cat     *catalog.Database
	db      *tsdb.DB
	items   []benchmark.Item
	eval    *benchmark.Evaluator
	verbose bool
	outCSV  string
	results []*benchmark.Result
}

func newEnv(size int, seed int64) (*env1, error) {
	fmt.Fprintln(os.Stderr, "dio-bench: generating catalog and populating the operator TSDB…")
	start := time.Now()
	cat := catalog.Generate()
	db := tsdb.New()
	rep, err := fivegsim.Populate(db, cat, fivegsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dio-bench: %s (%.1fs)\n", rep, time.Since(start).Seconds())
	items, err := benchmark.Generate(cat, size, seed)
	if err != nil {
		return nil, err
	}
	eval, err := benchmark.NewEvaluator(db)
	if err != nil {
		return nil, err
	}
	return &env1{cat: cat, db: db, items: items, eval: eval}, nil
}

// dio builds a DIO copilot over the environment for a model tier.
func (e *env1) dio(modelName string) (*baselines.DIOAdapter, error) {
	model, err := llm.New(modelName)
	if err != nil {
		return nil, err
	}
	cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model})
	if err != nil {
		return nil, err
	}
	return &baselines.DIOAdapter{Copilot: cp, Label: "DIO copilot"}, nil
}

func (e *env1) report(r *benchmark.Result) {
	e.results = append(e.results, r)
	if e.verbose {
		fmt.Print(benchmark.FormatResult(r))
	}
	if e.outCSV != "" {
		f, err := os.Create(e.outCSV)
		if err != nil {
			fatal("csv", err)
		}
		defer f.Close()
		if err := benchmark.WriteCSV(f, e.results...); err != nil {
			fatal("csv", err)
		}
	}
}

func (e *env1) setup() error {
	fmt.Println("Catalog:", e.cat.Stats())
	fmt.Println("Dataset:", benchmark.Summary(e.items))
	opts := core.DefaultOptions()
	fmt.Printf("DIO config: top-K=%d few-shot=%d max-output-tokens=%d temperature=%g\n",
		opts.TopK, opts.FewShot, opts.MaxOutputTokens, opts.Temperature)
	minT, maxT, _ := e.db.TimeRange()
	fmt.Printf("TSDB: %d series, %d samples, %s … %s\n", e.db.NumSeries(), e.db.NumSamples(),
		time.UnixMilli(minT).Format(time.RFC3339), time.UnixMilli(maxT).Format(time.RFC3339))
	return nil
}

func (e *env1) fig1() error {
	const question = "How many PDU sessions are currently active?"
	model := llm.MustNew("gpt-4")

	// (a) Plain chat model: no operator context at all.
	direct, err := model.Complete(llm.Request{
		Kind:   llm.KindAnswerDirect,
		Prompt: &llm.Prompt{Question: question},
	})
	if err != nil {
		return err
	}
	fmt.Println("--- (a) ChatGPT (no operator context) ---")
	fmt.Println(direct.Text)

	// (b) DIO copilot.
	dio, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	ans, err := dio.Copilot.Ask(context.Background(), question)
	if err != nil {
		return err
	}
	fmt.Println("\n--- (b) DIO copilot ---")
	fmt.Print(core.RenderAnswer(ans))
	return nil
}

func (e *env1) table3a() error {
	ctx := context.Background()
	dio, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	model := llm.MustNew("gpt-4")
	din := baselines.NewDINSQL(e.cat, model, 600, 11)
	direct := baselines.NewDirect(e.cat, model, 600, 11)

	var rows [][2]string
	for _, sys := range []baselines.QuerySystem{dio, din, direct} {
		r, err := e.eval.Evaluate(ctx, sys, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{r.System, fmt.Sprintf("%.0f", r.EX())})
		e.report(r)
	}
	fmt.Print(benchmark.Table("Table 3a: End-to-end comparison (paper: DIO 66, DIN-SQL 48, GPT-4 12)", "EX (%)", rows))
	return nil
}

func (e *env1) table3b() error {
	ctx := context.Background()
	var rows [][2]string
	for _, name := range llm.ModelNames() {
		dio, err := e.dio(name)
		if err != nil {
			return err
		}
		dio.Label = name
		r, err := e.eval.Evaluate(ctx, dio, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{name, fmt.Sprintf("%.0f", r.EX())})
		e.report(r)
	}
	fmt.Print(benchmark.Table("Table 3b: Foundation-model ablation (paper: GPT-4 66, GPT-3.5-turbo 46, text-curie-001 13)", "EX (%)", rows))
	return nil
}

func (e *env1) cost() error {
	ctx := context.Background()
	var rows [][2]string
	for _, name := range []string{"gpt-4", "gpt-3.5-turbo"} {
		dio, err := e.dio(name)
		if err != nil {
			return err
		}
		dio.Label = name
		r, err := e.eval.Evaluate(ctx, dio, e.items)
		if err != nil {
			return err
		}
		rows = append(rows, [2]string{name, fmt.Sprintf("%.2f ¢ (EX %.0f%%)", r.MeanCostCents, r.EX())})
	}
	fmt.Print(benchmark.Table("Inference cost per query (§4.2.5; paper: GPT-4 4.25¢, GPT-3.5-turbo 0.35¢)", "mean cost", rows))
	return nil
}

func (e *env1) ablations() error {
	ctx := context.Background()

	// Context-size sweep: top-K ∈ {0, 5, 15, 29, 60}.
	fmt.Println("Ablation A: context size (top-K)")
	for _, k := range []int{0, 5, 15, 29, 60} {
		model := llm.MustNew("gpt-4")
		opts := core.DefaultOptions()
		opts.TopK = k
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model, Options: opts})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: fmt.Sprintf("top-%d", k)}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  top-K=%-3d EX=%.0f%%\n", k, r.EX())
	}

	// Few-shot sweep.
	fmt.Println("Ablation B: few-shot examples")
	for _, n := range []int{0, 5, 10, 20} {
		model := llm.MustNew("gpt-4")
		opts := core.DefaultOptions()
		opts.FewShot = n
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: model, Options: opts})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: fmt.Sprintf("fewshot-%d", n)}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  few-shot=%-3d EX=%.0f%%\n", n, r.EX())
	}

	// Retrieval index: exact flat versus approximate IVF.
	fmt.Println("Ablation C: retrieval index (flat vs IVF)")
	flat, err := core.NewRetriever(e.cat, nil)
	if err != nil {
		return err
	}
	ivf := vecstore.NewIVF(flat.EmbeddingModel().Dim(), 64, 8, 3)
	ivfRet, err := core.NewRetriever(e.cat, ivf)
	if err != nil {
		return err
	}
	if err := ivf.Build(10); err != nil {
		return err
	}
	model := flat.EmbeddingModel()
	var qvecs []embedding.Vector
	for _, it := range e.items[:50] {
		qvecs = append(qvecs, model.Embed(it.Question))
	}
	// Recall@29 of IVF against exact search.
	exact := vecstore.NewFlat(model.Dim())
	for _, d := range e.cat.Documents() {
		if err := exact.Add(d.ID, model.Embed(d.Text)); err != nil {
			return err
		}
	}
	fmt.Printf("  IVF(nlist=64, nprobe=8) recall@29 = %.3f\n", vecstore.Recall(exact, ivf, qvecs, 29))
	for _, entry := range []struct {
		label string
		ret   *core.Retriever
	}{{"flat", flat}, {"ivf", ivfRet}} {
		label, ret := entry.label, entry.ret
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: ret})
		if err != nil {
			return err
		}
		r, err := e.eval.Evaluate(ctx, &baselines.DIOAdapter{Copilot: cp, Label: label}, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  %-5s EX=%.0f%%\n", label, r.EX())
	}

	// Feedback learning curve: after each round, experts contribute
	// documentation for up to 10 failing questions (the §3.4 loop), and
	// the benchmark is re-run. Uses a fresh catalog because contributions
	// mutate the domain-specific database.
	fmt.Println("Ablation D: expert-feedback learning curve")
	cat := catalog.Generate()
	cp, err := core.New(core.Config{Catalog: cat, TSDB: e.db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		return err
	}
	items, err := benchmark.Generate(cat, len(e.items), 7)
	if err != nil {
		return err
	}
	adapter := &baselines.DIOAdapter{Copilot: cp, Label: "dio+feedback"}
	contributedItems := make(map[int]bool)
	for round := 0; round <= 4; round++ {
		r, err := e.eval.Evaluate(ctx, adapter, items)
		if err != nil {
			return err
		}
		fmt.Printf("  round %d: EX=%.0f%% (%d expert contributions so far)\n", round, r.EX(), len(contributedItems))
		if round == 4 {
			break
		}
		contributed := 0
		for _, ir := range r.Items {
			if ir.Correct || contributed >= 10 || contributedItems[ir.Item.ID] {
				continue
			}
			contributedItems[ir.Item.ID] = true
			// The expert ties the question's own phrasing to the right
			// metric, exactly what a resolved issue contributes.
			cat.AddExpertMetricDoc(ir.Item.Metrics[0],
				"Answers the operator question: "+ir.Item.Question,
				"r.nakamura")
			m, _ := cat.Lookup(ir.Item.Metrics[0])
			if err := cp.Retriever().AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
				return err
			}
			contributed++
		}
		if contributed == 0 {
			fmt.Println("  (no correctable failures left)")
			break
		}
	}

	// The curve above is noise-bounded: most residual failures are model
	// noise, not missing knowledge. The §3.4 claim is sharpest on
	// *out-of-vocabulary* operator jargon, where the system starts at
	// zero and every expert contribution converts a failure.
	fmt.Println("Ablation D2: feedback on out-of-vocabulary jargon")
	jargonCat := catalog.Generate()
	jcp, err := core.New(core.Config{Catalog: jargonCat, TSDB: e.db, Model: llm.MustNew("gpt-4")})
	if err != nil {
		return err
	}
	jargon := []struct{ alias, metric string }{
		{"registration storm indicator", "amfcc_initial_registration_attempt"},
		{"attach pressure", "amfcc_initial_registration_attempt"},
		{"golden signal alpha", "smfsm_pdu_session_establishment_attempt"},
		{"session churn level", "smfsm_pdu_session_release_attempt"},
		{"paging pressure", "amfmm_paging_attempt"},
		{"air interface mobility load", "amfmm_ho_preparation_attempt"},
		{"core heartbeat pulse", "nrfnfm_nf_heartbeat_attempt"},
		{"slice picker load", "nssfsel_slice_selection_attempt"},
		{"wifi onramp volume", "n3iwfipsec_untrusted_registration_attempt"},
		{"forwarding fabric load", "upfsess_session_establishment_attempt"},
		{"subscriber fleet size", "amfcc_registered_ues"},
		{"tunnel population", "upfgtp_tunnels_active"},
	}
	var jitems []benchmark.Item
	for i, j := range jargon {
		jitems = append(jitems, benchmark.Item{
			ID:        i + 1,
			Question:  fmt.Sprintf("What is the current %s?", j.alias),
			Task:      llm.TaskCurrentTotal,
			Metrics:   []string{j.metric},
			Reference: llm.ReferenceQuery(llm.TaskCurrentTotal, []string{j.metric}),
		})
	}
	jadapter := &baselines.DIOAdapter{Copilot: jcp, Label: "dio+jargon"}
	jeval, err := benchmark.NewEvaluator(e.db)
	if err != nil {
		return err
	}
	for round := 0; round <= 3; round++ {
		r, err := jeval.Evaluate(ctx, jadapter, jitems)
		if err != nil {
			return err
		}
		fmt.Printf("  round %d: EX=%.0f%% of %d jargon questions (%d contributions)\n",
			round, r.EX(), len(jitems), round*4)
		if round == 3 {
			break
		}
		// Four expert contributions per round.
		for k := round * 4; k < (round+1)*4 && k < len(jargon); k++ {
			j := jargon[k]
			jargonCat.AddExpertMetricDoc(j.metric,
				"The "+j.alias+" is this counter's fleet-wide total.", "a.kimura")
			m, _ := jargonCat.Lookup(j.metric)
			if err := jcp.Retriever().AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m}); err != nil {
				return err
			}
		}
	}

	// Self-consistency (the complementary-techniques future work of §2):
	// sample the pipeline at temperature 0.7 several times and majority-
	// vote on the generated query, versus the paper's greedy temperature-0
	// decoding.
	fmt.Println("Ablation E: self-consistency decoding")
	greedy, err := e.dio("gpt-4")
	if err != nil {
		return err
	}
	rg, err := e.eval.Evaluate(ctx, greedy, e.items)
	if err != nil {
		return err
	}
	fmt.Printf("  greedy (temperature 0):          EX=%.0f%%\n", rg.EX())
	for _, k := range []int{3, 5} {
		opts := core.DefaultOptions()
		opts.Temperature = 0.7
		cp, err := core.New(core.Config{Catalog: e.cat, TSDB: e.db, Model: llm.MustNew("gpt-4"), Retriever: flat, Options: opts})
		if err != nil {
			return err
		}
		sc := &selfConsistent{cp: cp, samples: k}
		r, err := e.eval.Evaluate(ctx, sc, e.items)
		if err != nil {
			return err
		}
		fmt.Printf("  self-consistency (temp 0.7, k=%d): EX=%.0f%%\n", k, r.EX())
	}
	return nil
}

// selfConsistent majority-votes over k sampled generations.
type selfConsistent struct {
	cp      *core.Copilot
	samples int
}

func (s *selfConsistent) Name() string { return fmt.Sprintf("self-consistency-%d", s.samples) }

func (s *selfConsistent) GenerateQuery(ctx context.Context, question string) (baselines.QueryResult, error) {
	votes := make(map[string]int)
	var out baselines.QueryResult
	byQuery := make(map[string]baselines.QueryResult)
	for i := 0; i < s.samples; i++ {
		ans, err := s.cp.Ask(ctx, question)
		if err != nil {
			return baselines.QueryResult{}, err
		}
		votes[ans.Query]++
		byQuery[ans.Query] = baselines.QueryResult{Query: ans.Query, Task: ans.Task}
		out.CostCents += ans.CostCents
		out.Usage.PromptTokens += ans.Usage.PromptTokens
		out.Usage.CompletionTokens += ans.Usage.CompletionTokens
	}
	best, bestVotes := "", -1
	// Deterministic tie-break by query text.
	keys := make([]string, 0, len(votes))
	for q := range votes {
		keys = append(keys, q)
	}
	sort.Strings(keys)
	for _, q := range keys {
		if votes[q] > bestVotes {
			best, bestVotes = q, votes[q]
		}
	}
	chosen := byQuery[best]
	chosen.CostCents = out.CostCents
	chosen.Usage = out.Usage
	return chosen, nil
}
