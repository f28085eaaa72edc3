package benchmark

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"dio/internal/baselines"
	"dio/internal/catalog"
	"dio/internal/core"
	"dio/internal/embedding"
	"dio/internal/fivegsim"
	"dio/internal/llm"
	"dio/internal/tsdb"
	"dio/internal/vecstore"
)

// Env is the paper's evaluation setup: the catalog, the trace it is
// populated into, the benchmark questions and a flat-index retriever over
// the catalog. Experiments only reads it.
type Env struct {
	Catalog   *catalog.Database
	DB        *tsdb.DB
	Items     []Item
	Retriever *core.Retriever
}

// NewEnv builds the setup EXPERIMENTS.md reports: the generated catalog,
// the default two-hour simulated trace and the 200 seed-7 questions.
func NewEnv() (Env, error) {
	cat := catalog.Generate()
	db := tsdb.New()
	if _, err := fivegsim.Populate(db, cat, fivegsim.DefaultConfig()); err != nil {
		return Env{}, err
	}
	items, err := Generate(cat, DefaultSize, 7)
	if err != nil {
		return Env{}, err
	}
	ret, err := core.NewRetriever(cat, nil)
	if err != nil {
		return Env{}, err
	}
	return Env{Catalog: cat, DB: db, Items: items, Retriever: ret}, nil
}

// Section is one generated region of EXPERIMENTS.md: the text between
// "<!-- generated: Name -->" and "<!-- end Name -->", newline-terminated.
type Section struct {
	Name string
	Text string
}

// Experiments renders the paper's evaluation (§4) and the extension
// ablations over env, every system scored by one Evaluator. The paper's
// values are literals here; every measured value is computed.
func Experiments(ctx context.Context, env Env) ([]Section, error) {
	eval, err := NewEvaluator(env.DB)
	if err != nil {
		return nil, err
	}
	r := &run{Env: env, ctx: ctx, eval: eval, dioRuns: make(map[string]*Result)}
	var out []Section
	for _, s := range []struct {
		name   string
		render func(*run) (string, error)
	}{
		{"setup", (*run).setup},
		{"fig1", (*run).fig1},
		{"table3a", (*run).table3a},
		{"table3b", (*run).table3b},
		{"cost", (*run).cost},
		{"ablations", (*run).ablations},
	} {
		text, err := s.render(r)
		if err != nil {
			return nil, fmt.Errorf("benchmark: experiment %s: %w", s.name, err)
		}
		out = append(out, Section{Name: s.name, Text: text})
	}
	return out, nil
}

// run is one rendering: the environment, its one evaluator and the DIO
// results already scored, by model and options.
type run struct {
	Env
	ctx     context.Context
	eval    *Evaluator
	dioRuns map[string]*Result
}

// copilot builds a DIO copilot over the trace. A nil retriever builds a
// flat one over cat.
func (r *run) copilot(model string, opts core.Options, cat *catalog.Database, ret *core.Retriever) (*core.Copilot, error) {
	m, err := llm.New(model)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{Catalog: cat, TSDB: r.DB, Model: m, Options: opts, Retriever: ret})
}

// dio scores DIO over the environment's catalog and retriever, once per
// model and options: the sections share the paper's configuration.
func (r *run) dio(model string, opts core.Options) (*Result, error) {
	key := fmt.Sprint(model, opts)
	if res, ok := r.dioRuns[key]; ok {
		return res, nil
	}
	cp, err := r.copilot(model, opts, r.Catalog, r.Retriever)
	if err != nil {
		return nil, err
	}
	res, err := r.eval.Evaluate(r.ctx, &baselines.DIOAdapter{Copilot: cp}, r.Items)
	if err != nil {
		return nil, err
	}
	r.dioRuns[key] = res
	return res, nil
}

// sweep scores DIO over gpt-4 once per setting and renders the EX values
// as "a% / b% / …".
func (r *run) sweep(settings []int, set func(*core.Options, int)) (string, error) {
	var ex []string
	for _, v := range settings {
		opts := core.DefaultOptions()
		set(&opts, v)
		res, err := r.dio("gpt-4", opts)
		if err != nil {
			return "", err
		}
		ex = append(ex, fmt.Sprintf("%.0f%%", res.EX()))
	}
	return strings.Join(ex, " / "), nil
}

func (r *run) setup() (string, error) {
	opts := core.DefaultOptions()
	few := core.FewShotExamples()
	var tasks []llm.TaskKind
	for _, ex := range few {
		if !slices.Contains(tasks, ex.Task) {
			tasks = append(tasks, ex.Task)
		}
	}
	minT, maxT, _ := r.DB.TimeRange()
	var b strings.Builder
	b.WriteString("| Paper setup | This repo |\n|---|---|\n")
	for _, row := range [][2]string{
		{`">3000 metrics … across AMF, SMF, NRF, N3IWF, NSSF, UPF"`, r.Catalog.Stats().String()},
		{`"top 29 most similar text samples appended"`, fmt.Sprintf("`core.DefaultOptions().TopK = %d`", opts.TopK)},
		{`"20 expert-generated tuples" few-shot`, fmt.Sprintf("`core.FewShotExamples()` = %d, %d of %d task patterns demonstrated", len(few), len(tasks), len(llm.AllTasks()))},
		{`"maximum number of output tokens … 1000"`, fmt.Sprintf("`MaxOutputTokens = %d`", opts.MaxOutputTokens)},
		{`"temperature … 0 for repeatable answers"`, fmt.Sprintf("temperature %g; determinism enforced by property tests", opts.Temperature)},
		{`"200 expert-generated questions … up to three metrics"`, Summary(r.Items) + "; few-shot procedures excluded (no training leakage)"},
		{"sentence-BERT + FAISS", "deterministic hashed-feature embedder + Flat/IVF vector index"},
		{`PromQL "as it is popular with operator deployments"`, "full PromQL-subset engine; EX compares executed numeric results"},
		{"(the operator telemetry queried)", fmt.Sprintf("simulated trace: %d series, %d samples, %s … %s", r.DB.NumSeries(), r.DB.NumSamples(),
			time.UnixMilli(minT).UTC().Format(time.RFC3339), time.UnixMilli(maxT).UTC().Format(time.RFC3339))},
	} {
		fmt.Fprintf(&b, "| %s | %s |\n", row[0], row[1])
	}
	return b.String(), nil
}

// fig1 asks Figure 1's question of the raw chat model and of DIO, and
// fails unless DIO's query executes.
func (r *run) fig1() (string, error) {
	const question = "How many PDU sessions are currently active?"
	direct, err := llm.MustNew("gpt-4").Complete(llm.Request{
		Kind:   llm.KindAnswerDirect,
		Prompt: &llm.Prompt{Question: question},
	})
	if err != nil {
		return "", err
	}
	cp, err := r.copilot("gpt-4", core.DefaultOptions(), r.Catalog, r.Retriever)
	if err != nil {
		return "", err
	}
	ans, err := cp.Ask(r.ctx, question)
	if err != nil {
		return "", err
	}
	if ans.ExecErr != nil {
		return "", fmt.Errorf("DIO's query %q: %w", ans.Query, ans.ExecErr)
	}
	return "```text\n--- (a) ChatGPT (no operator context) ---\n" + direct.Text +
		"\n\n--- (b) DIO copilot ---\n" + core.RenderAnswer(ans) + "```\n", nil
}

// exTable renders a "label | paper | measured" table, the measured value
// in bold.
func exTable(header string, rows [][3]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n|---|---:|---:|\n", header)
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s | %s | **%s** |\n", row[0], row[1], row[2])
	}
	return b.String()
}

func (r *run) table3a() (string, error) {
	dio, err := r.dio("gpt-4", core.DefaultOptions())
	if err != nil {
		return "", err
	}
	rows := [][3]string{{dio.System, "66", fmt.Sprintf("%.0f", dio.EX())}}
	model := llm.MustNew("gpt-4")
	for _, s := range []struct {
		sys   baselines.QuerySystem
		paper string
	}{
		{baselines.NewDINSQL(r.Catalog, model, 600, 11), "48"},
		{baselines.NewDirect(r.Catalog, model, 600, 11), "12"},
	} {
		res, err := r.eval.Evaluate(r.ctx, s.sys, r.Items)
		if err != nil {
			return "", err
		}
		rows = append(rows, [3]string{res.System, s.paper, fmt.Sprintf("%.0f", res.EX())})
	}
	return exTable("| Approach | Paper EX (%) | Measured EX (%) |", rows), nil
}

// paperModels are the model tiers of Table 3b and §4.2.5 with the paper's
// EX (%) and cost (¢/query); text-curie-001 has no reported cost.
var paperModels = []struct{ label, model, ex, cost string }{
	{"GPT-4", "gpt-4", "66", "4.25"},
	{"GPT-3.5-turbo", "gpt-3.5-turbo", "46", "0.35"},
	{"text-curie-001", "text-curie-001", "13", ""},
}

func (r *run) table3b() (string, error) {
	var rows [][3]string
	for _, m := range paperModels {
		res, err := r.dio(m.model, core.DefaultOptions())
		if err != nil {
			return "", err
		}
		rows = append(rows, [3]string{m.label, m.ex, fmt.Sprintf("%.0f", res.EX())})
	}
	return exTable("| Model | Paper EX (%) | Measured EX (%) |", rows), nil
}

func (r *run) cost() (string, error) {
	var rows [][3]string
	for _, m := range paperModels {
		if m.cost == "" {
			continue
		}
		res, err := r.dio(m.model, core.DefaultOptions())
		if err != nil {
			return "", err
		}
		rows = append(rows, [3]string{m.label, m.cost, fmt.Sprintf("%.2f", res.MeanCostCents)})
	}
	return exTable("| Model | Paper ¢/query | Measured ¢/query |", rows), nil
}

// jargon is ablation D2's out-of-vocabulary operator slang, each alias
// with the counter it names.
var jargon = []struct{ alias, metric string }{
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

// contribute adds an expert's documentation for metric to cat and to the
// copilot's retriever, as a resolved §3.4 issue does.
func contribute(cat *catalog.Database, cp *core.Copilot, metric, text, author string) error {
	cat.AddExpertMetricDoc(metric, text, author)
	m, _ := cat.Lookup(metric)
	return cp.Retriever().AddDocument(catalog.Document{ID: m.Name, Text: m.Doc(), Metric: m})
}

// ablations renders the extension ablations, one row each.
func (r *run) ablations() (string, error) {
	var b strings.Builder
	b.WriteString("| Ablation | Measured EX |\n|---|---|\n")
	for _, row := range []func(*run) (label, measured string, err error){
		(*run).contextSize, (*run).fewShot, (*run).index, (*run).feedback, (*run).jargonFeedback, (*run).selfConsistency,
	} {
		label, measured, err := row(r)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %s | %s |\n", label, measured)
	}
	return b.String(), nil
}

func (r *run) contextSize() (string, string, error) {
	topK := []int{0, 5, 15, 29, 60}
	ex, err := r.sweep(topK, func(o *core.Options, k int) { o.TopK = k })
	return "A. context size top-K = " + joinInts(topK), ex, err
}

func (r *run) fewShot() (string, string, error) {
	n := []int{0, 5, 10, 20}
	ex, err := r.sweep(n, func(o *core.Options, n int) { o.FewShot = n })
	return "B. few-shot = " + joinInts(n), ex, err
}

// index compares the exact flat index with approximate IVF: IVF's recall
// of the exact top 29 and both systems' EX.
func (r *run) index() (string, string, error) {
	model := r.Retriever.EmbeddingModel()
	ivf := vecstore.NewIVF(model.Dim(), 64, 8, 3)
	ivfRet, err := core.NewRetriever(r.Catalog, ivf)
	if err != nil {
		return "", "", err
	}
	if err := ivf.Build(10); err != nil {
		return "", "", err
	}
	exact := vecstore.NewFlat(model.Dim())
	for _, d := range r.Catalog.Documents() {
		if err := exact.Add(d.ID, model.Embed(d.Text)); err != nil {
			return "", "", err
		}
	}
	var qvecs []embedding.Vector
	for _, it := range r.Items[:min(50, len(r.Items))] {
		qvecs = append(qvecs, model.Embed(it.Question))
	}
	flat, err := r.dio("gpt-4", core.DefaultOptions())
	if err != nil {
		return "", "", err
	}
	cp, err := r.copilot("gpt-4", core.DefaultOptions(), r.Catalog, ivfRet)
	if err != nil {
		return "", "", err
	}
	approx, err := r.eval.Evaluate(r.ctx, &baselines.DIOAdapter{Copilot: cp}, r.Items)
	if err != nil {
		return "", "", err
	}
	return "C. retrieval index flat vs IVF(nlist=64, nprobe=8)", fmt.Sprintf("recall@29 = %.3f; EX %.0f%% → %.0f%% (IVF)",
		vecstore.Recall(exact, ivf, qvecs, 29), flat.EX(), approx.EX()), nil
}

// feedback is the §3.4 loop: after each round, experts document up to 10
// failing questions in their own phrasing. Contributions mutate the
// catalog, so the loop runs over a fresh one.
func (r *run) feedback() (string, string, error) {
	cat := catalog.Generate()
	cp, err := r.copilot("gpt-4", core.DefaultOptions(), cat, nil)
	if err != nil {
		return "", "", err
	}
	contributed := make(map[int]bool)
	var counts, curve []string
	for round := 0; ; round++ {
		res, err := r.eval.Evaluate(r.ctx, &baselines.DIOAdapter{Copilot: cp}, r.Items)
		if err != nil {
			return "", "", err
		}
		counts = append(counts, fmt.Sprint(len(contributed)))
		curve = append(curve, fmt.Sprintf("%.0f%%", res.EX()))
		if round == 4 {
			break
		}
		n := 0
		for _, ir := range res.Items {
			if ir.Correct || n >= 10 || contributed[ir.Item.ID] {
				continue
			}
			contributed[ir.Item.ID] = true
			if err := contribute(cat, cp, ir.Item.Metrics[0], "Answers the operator question: "+ir.Item.Question, "r.nakamura"); err != nil {
				return "", "", err
			}
			n++
		}
		if n == 0 {
			break
		}
	}
	return "D. feedback learning curve (benchmark questions), " + strings.Join(counts, " / ") + " contributions", strings.Join(curve, " / "), nil
}

// jargonFeedback is the same loop on out-of-vocabulary jargon, where the
// system starts near zero, with four contributions per round.
func (r *run) jargonFeedback() (string, string, error) {
	cat := catalog.Generate()
	cp, err := r.copilot("gpt-4", core.DefaultOptions(), cat, nil)
	if err != nil {
		return "", "", err
	}
	var items []Item
	for i, j := range jargon {
		items = append(items, Item{
			ID:        i + 1,
			Question:  fmt.Sprintf("What is the current %s?", j.alias),
			Task:      llm.TaskCurrentTotal,
			Metrics:   []string{j.metric},
			Reference: llm.ReferenceQuery(llm.TaskCurrentTotal, []string{j.metric}),
		})
	}
	var counts, curve []string
	for done := 0; ; done += 4 {
		res, err := r.eval.Evaluate(r.ctx, &baselines.DIOAdapter{Copilot: cp}, items)
		if err != nil {
			return "", "", err
		}
		counts = append(counts, fmt.Sprint(done))
		curve = append(curve, fmt.Sprintf("%.0f%%", res.EX()))
		if done >= len(jargon) {
			break
		}
		for _, j := range jargon[done:min(done+4, len(jargon))] {
			if err := contribute(cat, cp, j.metric, "The "+j.alias+" is this counter's fleet-wide total.", "a.kimura"); err != nil {
				return "", "", err
			}
		}
	}
	return fmt.Sprintf("D2. feedback learning curve (%d out-of-vocabulary jargon questions), %s contributions", len(items), strings.Join(counts, " / ")),
		strings.Join(curve, " / "), nil
}

// selfConsistency is §2's complementary-techniques future work: a
// majority vote over k generations at temperature 0.7, against the
// paper's greedy temperature-0 decoding.
func (r *run) selfConsistency() (string, string, error) {
	greedy, err := r.dio("gpt-4", core.DefaultOptions())
	if err != nil {
		return "", "", err
	}
	curve := []string{fmt.Sprintf("%.0f%%", greedy.EX())}
	votes := []int{3, 5}
	for _, k := range votes {
		opts := core.DefaultOptions()
		opts.Temperature = 0.7
		cp, err := r.copilot("gpt-4", opts, r.Catalog, r.Retriever)
		if err != nil {
			return "", "", err
		}
		res, err := r.eval.Evaluate(r.ctx, &selfConsistent{cp: cp, samples: k}, r.Items)
		if err != nil {
			return "", "", err
		}
		curve = append(curve, fmt.Sprintf("%.0f%%", res.EX()))
	}
	return "E. self-consistency decoding (§2 future work), greedy / majority vote of k = " + joinInts(votes) + " at temperature 0.7",
		strings.Join(curve, " / "), nil
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, n := range v {
		s[i] = fmt.Sprint(n)
	}
	return strings.Join(s, " / ")
}

// selfConsistent majority-votes over k sampled generations, a tie going
// to the smallest query text; its cost is all k generations'.
type selfConsistent struct {
	cp      *core.Copilot
	samples int
}

func (s *selfConsistent) Name() string { return fmt.Sprintf("self-consistency-%d", s.samples) }

func (s *selfConsistent) GenerateQuery(ctx context.Context, question string) (baselines.QueryResult, error) {
	votes := make(map[string]int)
	var cost float64
	for i := 0; i < s.samples; i++ {
		ans, err := s.cp.Ask(ctx, question)
		if err != nil {
			return baselines.QueryResult{}, err
		}
		votes[ans.Query]++
		cost += ans.CostCents
	}
	best := ""
	for q, n := range votes {
		if n > votes[best] || n == votes[best] && q < best {
			best = q
		}
	}
	return baselines.QueryResult{Query: best, CostCents: cost}, nil
}
