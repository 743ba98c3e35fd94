package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"xmlac"
	"xmlac/internal/xmlstream"
)

// The references of server_mixed. Every PATCH changes a document, so each
// view is checked against the reference of the version it observed. A full
// xmlac.EvaluateDocument per version would cost more than the run itself;
// the workload's policies decide each folder from that folder's content
// alone, so a view is the concatenation of per-folder views, each from
// xmlac.EvaluateDocument on a one-folder plaintext document, and an edit
// re-evaluates only its folder. The composition is checked against a full
// xmlac.EvaluateDocument of the final plaintext.

const (
	viewOpen  = "<Hospital>"
	viewClose = "</Hospital>"
)

// docModel is the plaintext model of one server document.
type docModel struct {
	full     *xmlac.Document   // the whole document
	folders  []*xmlac.Document // one <Hospital><Folder/></Hospital> document per folder
	policies []xmlac.Policy    // one per subject class
	frags    [][]string        // frags[class][folder]: the folder's part of the class view
}

func newDocModel(root *xmlstream.Node, policies []xmlac.Policy) (*docModel, error) {
	full, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(root, false))
	if err != nil {
		return nil, err
	}
	m := &docModel{full: full, policies: policies, frags: make([][]string, len(policies))}
	for _, folder := range root.Children {
		doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(xmlstream.NewElement(root.Name, folder), false))
		if err != nil {
			return nil, err
		}
		m.folders = append(m.folders, doc)
	}
	for c := range policies {
		m.frags[c] = make([]string, len(m.folders))
		for f := range m.folders {
			if err := m.evalFolder(c, f); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// evalFolder recomputes one folder's part of one class view.
func (m *docModel) evalFolder(c, f int) error {
	v, err := xmlac.EvaluateDocument(m.folders[f], m.policies[c], xmlac.ViewOptions{})
	if err != nil {
		return err
	}
	x := v.XML()
	if x != "" {
		if !strings.HasPrefix(x, viewOpen) || !strings.HasSuffix(x, viewClose) {
			return fmt.Errorf("folder %d view of %s is not wrapped in its root: %.40q", f+1, m.policies[c].Subject, x)
		}
		x = x[len(viewOpen) : len(x)-len(viewClose)]
	}
	m.frags[c][f] = x
	return nil
}

// apply replays one acknowledged patch through Document.ApplyEdits on the
// whole document and on the folder's own document.
func (m *docModel) apply(o op) error {
	if err := m.full.ApplyEdits(xmlac.Edit{Op: xmlac.EditSetText, Path: o.path(), Text: o.text}); err != nil {
		return err
	}
	local := o
	local.folder = 1
	f := o.folder - 1
	if err := m.folders[f].ApplyEdits(xmlac.Edit{Op: xmlac.EditSetText, Path: local.path(), Text: o.text}); err != nil {
		return err
	}
	for c := range m.policies {
		if err := m.evalFolder(c, f); err != nil {
			return err
		}
	}
	return nil
}

// digest is the digest of the class view composed from the folder views.
func (m *docModel) digest(c int) string {
	h := sha256.New()
	empty := true
	for _, x := range m.frags[c] {
		if x != "" {
			empty = false
			break
		}
	}
	if !empty {
		h.Write([]byte(viewOpen))
		for _, x := range m.frags[c] {
			h.Write([]byte(x))
		}
		h.Write([]byte(viewClose))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify checks, after the run, that the acknowledged versions of every
// document rise by one, that every view matches the reference of a version
// it may have observed, and that the views fetched before and after the
// data dir was reopened match the references of the final plaintext.
func (l *mixedLoad) verify(roots []*xmlstream.Node, served, recovered map[[2]int]string, versions []uint64) error {
	res := l.res
	policies := make([]xmlac.Policy, numClasses)
	for _, s := range l.subjects {
		policies[s.class] = s.policy
	}
	type ack struct {
		version uint64
		i       int
	}
	acks := make([][]ack, mixedDocs)
	for i, o := range l.out {
		if l.ops[i].patch && o.err == nil {
			acks[l.ops[i].doc] = append(acks[l.ops[i].doc], ack{o.version, i})
		}
	}
	final := append([]uint64(nil), l.initial...)
	for d := range acks {
		sort.Slice(acks[d], func(a, b int) bool { return acks[d][a].version < acks[d][b].version })
		for k, a := range acks[d] {
			if a.version != l.initial[d]+uint64(k)+1 {
				res.fail("%s: acknowledged PATCH versions do not rise by one from %d (the %d-th is %d)",
					docID(d), l.initial[d], k+1, a.version)
				acks[d] = acks[d][:k]
				break
			}
			final[d] = a.version
		}
		res.check(versions[d] == final[d], "%s: reopened data dir holds version %d, want %d", docID(d), versions[d], final[d])
	}

	type key struct {
		doc     int
		version uint64
		class   int
	}
	refs := map[key]string{}
	for i, o := range l.out {
		if op := l.ops[i]; !op.patch && o.err == nil {
			for v := o.lo; v <= o.hi && v <= final[op.doc]; v++ {
				refs[key{op.doc, v, l.subjects[op.subject].class}] = ""
			}
		}
	}
	finalRefs := make([][]string, mixedDocs)
	for d, root := range roots {
		m, err := newDocModel(root, policies)
		if err != nil {
			return fmt.Errorf("%s: building the reference model: %w", docID(d), err)
		}
		fill := func(v uint64) {
			for c := range policies {
				if _, ok := refs[key{d, v, c}]; ok {
					refs[key{d, v, c}] = m.digest(c)
				}
			}
		}
		fill(l.initial[d])
		for _, a := range acks[d] {
			if err := m.apply(l.ops[a.i]); err != nil {
				res.fail("%s: replaying acknowledged patch %d: %v", docID(d), a.i, err)
				break
			}
			fill(a.version)
		}
		for c, p := range policies {
			v, err := xmlac.EvaluateDocument(m.full, p, xmlac.ViewOptions{})
			if err != nil {
				return err
			}
			ref := digestString(v.XML())
			res.check(ref == m.digest(c), "%s: per-folder reference of %s differs from the whole-document reference", docID(d), p.Subject)
			finalRefs[d] = append(finalRefs[d], ref)
		}
	}
	for i, o := range l.out {
		op := l.ops[i]
		if op.patch || o.err != nil {
			continue
		}
		c, match := l.subjects[op.subject].class, false
		for v := o.lo; v <= o.hi && v <= final[op.doc]; v++ {
			match = match || refs[key{op.doc, v, c}] == o.digest
		}
		res.check(match, "view %d (%s/%s): matches no reference of versions %d..%d",
			i, docID(op.doc), l.subjects[op.subject].name, o.lo, o.hi)
	}
	for k, got := range served {
		res.check(got == finalRefs[k[0]][l.subjects[k[1]].class], "final view %s/%s differs from the reference",
			docID(k[0]), l.subjects[k[1]].name)
	}
	for k, got := range recovered {
		res.check(got == finalRefs[k[0]][l.subjects[k[1]].class], "view %s/%s after reopening the data dir differs from the reference",
			docID(k[0]), l.subjects[k[1]].name)
	}
	return nil
}
