package core

// AskSystemPrompt lets a test rebuild the prompts of an ask by hand.
const AskSystemPrompt = askSystemPrompt
