package persist

// DeleteFile stages removal of a virtual file.
func (p *Pager) DeleteFile(name string) {
	p.pendingDir[name] = fileEntry{root: -1, length: -1}
}
