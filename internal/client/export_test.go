package client

// Deallocate drops a prepared statement locally and server-side.
func (c *Client) Deallocate(name string) error {
	c.mu.Lock()
	for i, p := range c.prepared {
		if p.name == name {
			c.prepared = append(c.prepared[:i], c.prepared[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	_, err := c.DoRetryOK("DEALLOCATE " + name)
	return err
}
